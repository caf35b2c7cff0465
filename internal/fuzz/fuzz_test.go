package fuzz

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sema"
	"repro/internal/verilog"
)

func TestGeneratorDeterminism(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a := Generate(seed)
		b := Generate(seed)
		if a != b {
			t.Fatalf("seed %d: generator is not deterministic", seed)
		}
	}
	if Generate(1) == Generate(2) {
		t.Fatal("distinct seeds produced identical modules")
	}
}

// TestGeneratorCompileRate holds the generator to its "always
// compilable" contract: the frontend must accept nearly every module.
// A small miss rate is tolerated for hazard mutations that land on an
// unlucky site; a big one means the generator regressed.
func TestGeneratorCompileRate(t *testing.T) {
	const n = 300
	ok := 0
	for seed := int64(0); seed < n; seed++ {
		src := Generate(seed)
		file, diags := verilog.Parse(src)
		if diags.HasErrors() {
			t.Logf("seed %d: parse: %s\n%s", seed, diags.Summary(), src)
			continue
		}
		if _, diags := sema.Elaborate(file); diags.HasErrors() {
			t.Logf("seed %d: sema: %s\n%s", seed, diags.Summary(), src)
			continue
		}
		ok++
	}
	if rate := float64(ok) / n; rate < 0.95 {
		t.Fatalf("compile rate %.2f < 0.95 (%d/%d)", rate, ok, n)
	}
}

// TestCampaignSmoke runs a small deterministic campaign and requires
// zero divergences — the same property CI's fuzz-smoke job checks at
// larger scale.
func TestCampaignSmoke(t *testing.T) {
	count := 150
	if testing.Short() {
		count = 30
	}
	stats, finds := Run(Options{Seed: 1, Count: count, Cycles: 8})
	if stats.Checked == 0 {
		t.Fatal("campaign checked nothing")
	}
	for _, d := range finds {
		t.Errorf("seed %d diverged: %s\nminimized:\n%s", d.Seed, d.Mismatch, d.Minimized)
	}
}

// TestMinimizerShrinks drives the delta-debugging loop with a
// synthetic interestingness predicate (module still contains the
// aliasing store and still elaborates) and checks it strips the noise
// statements around it.
func TestMinimizerShrinks(t *testing.T) {
	src := `
module m(input clk, input [7:0] d0, input [7:0] d1, output reg [7:0] q, output reg [7:0] r);
	wire [7:0] t0 = d0 ^ d1;
	wire [7:0] t1 = t0 + 1;
	always @(posedge clk) begin
		r <= d1 & t1;
		if (d0[0])
			r <= r + 1;
		else
			r <= r - 1;
	end
	always @(posedge clk) begin
		q = d0;
		q[4:1] = q;
		r <= q ^ d1;
	end
endmodule`
	check := func(cand string) bool {
		if !strings.Contains(cand, "q[4:1] = q") {
			return false
		}
		file, diags := verilog.Parse(cand)
		if diags.HasErrors() {
			return false
		}
		_, diags = sema.Elaborate(file)
		return !diags.HasErrors()
	}
	min := MinimizeWith(src, check)
	if !check(min) {
		t.Fatalf("minimized output fails its own predicate:\n%s", min)
	}
	if got, want := LineCount(min), LineCount(src); got >= want {
		t.Fatalf("no shrinkage: %d lines -> %d lines\n%s", want, got, min)
	}
	if LineCount(min) > 10 {
		t.Fatalf("expected a <=10 line repro, got %d lines:\n%s", LineCount(min), min)
	}
	for _, noise := range []string{"t0", "t1", "if ("} {
		if strings.Contains(min, noise) {
			t.Fatalf("noise %q survived minimization:\n%s", noise, min)
		}
	}
}

// TestMinimizeRealDivergence checks the end-to-end contract on a
// module that genuinely diverged before the aliasing fixes: now that
// both backends agree, Minimize must refuse to "shrink" a non-repro.
func TestMinimizeRealDivergence(t *testing.T) {
	src := `module m(input clk, input [7:0] d, output reg [7:0] q);
	always @(posedge clk) begin
		q = d;
		q[4:1] = q;
	end
endmodule`
	if got := Minimize(src, 16, 5); got != src {
		t.Fatalf("Minimize altered a non-diverging module:\n%s", got)
	}
}

func TestTestCaseRendering(t *testing.T) {
	src := "module m(input clk, input a, output reg y);\n\talways @(posedge clk) y <= a;\nendmodule\n"
	tc := TestCase("fuzz_seed_9", src, 12, 9)
	for _, want := range []string{`name: "fuzz_seed_9"`, `clock: "clk"`, "cycles: 12", "seed: 9", "endmodule"} {
		if !strings.Contains(tc, want) {
			t.Fatalf("test case missing %q:\n%s", want, tc)
		}
	}
	if strings.Contains(tc, "`\n`") || strings.Count(tc, "`") != 2 {
		t.Fatalf("backquote hygiene: %s", tc)
	}
}

// TestAliasOracle pins the static cross-check: the L010 rule fires on
// the generator's signature alias shapes and stays quiet on a module
// without them.
func TestAliasOracle(t *testing.T) {
	dirty := `module fz(input clk, input [7:0] d0, output reg [7:0] q0);
	always @(posedge clk) begin
		q0 = d0;
		q0[4:1] = q0;
	end
endmodule
`
	if n := len(AliasFindingsFor(dirty)); n == 0 {
		t.Fatal("alias oracle missed a self-aliasing slice store")
	}
	clean := `module fz(input clk, input [7:0] d0, output reg [7:0] q0);
	always @(posedge clk) q0 <= d0;
endmodule
`
	if fs := AliasFindingsFor(clean); len(fs) != 0 {
		t.Fatalf("alias oracle fired on a clean module: %v", fs)
	}
}

// TestAliasBiasStreamStability guards CI replayability: with AliasBias
// zero the generator must emit exactly the bytes it always has, and with
// bias on, alias-hazard shapes become more common.
func TestAliasBiasStreamStability(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		plain := Generate(seed)
		unbiased := GenerateWith(seed, GenConfig{AliasBias: 0})
		if plain != unbiased {
			t.Fatalf("seed %d: zero AliasBias changed the generated stream", seed)
		}
	}
	hits := func(bias float64) int {
		n := 0
		for seed := int64(0); seed < 300; seed++ {
			if len(AliasFindingsFor(GenerateWith(seed, GenConfig{AliasBias: bias, MutateProb: -1}))) > 0 {
				n++
			}
		}
		return n
	}
	base, biased := hits(0), hits(1)
	if biased <= base {
		t.Fatalf("AliasBias=1 did not raise alias-hazard density: %d vs %d", biased, base)
	}
}

// TestCampaignReportsAnalyzerVerdict checks divergences carry the
// oracle's verdict (any diverging seed will do; rely on a known one).
func TestCampaignReportsAnalyzerVerdict(t *testing.T) {
	stats, finds := Run(Options{Seed: 0, Count: 400, Cycles: 8})
	if stats.Diverged != len(finds) {
		t.Fatalf("stats.Diverged=%d but %d finds", stats.Diverged, len(finds))
	}
	clean := 0
	for _, d := range finds {
		if d.AnalyzerClean != (d.AliasFindings == 0) {
			t.Fatalf("seed %d: inconsistent oracle verdict: %+v", d.Seed, d)
		}
		if d.AnalyzerClean {
			clean++
			if d.Priority() != "high" {
				t.Fatalf("clean divergence not high priority")
			}
		} else if d.Priority() != "normal" {
			t.Fatalf("flagged divergence not normal priority")
		}
	}
	if clean != stats.CleanDiverged {
		t.Fatalf("CleanDiverged=%d, counted %d", stats.CleanDiverged, clean)
	}
}

// TestCoverageGuided runs a short coverage-guided campaign and asserts
// the corpus signature grows monotonically and ends nonzero.
func TestCoverageGuided(t *testing.T) {
	var growth []int
	stats, _ := Run(Options{
		Seed: 0, Count: 60, Cycles: 6, Coverage: true,
		CoverageLog: func(line string) {
			var seed int64
			var cov, delta int
			if _, err := fmt.Sscanf(line, "corpus+ seed=%d coverage=%d (+%d)", &seed, &cov, &delta); err != nil {
				t.Fatalf("unparseable coverage log line %q: %v", line, err)
			}
			growth = append(growth, cov)
		},
	})
	if !stats.CoverageOn || stats.Corpus == 0 || stats.CoveragePoints == 0 {
		t.Fatalf("coverage guidance produced nothing: %+v", stats)
	}
	if len(growth) != stats.Corpus {
		t.Fatalf("%d log lines for %d admissions", len(growth), stats.Corpus)
	}
	for i := 1; i < len(growth); i++ {
		if growth[i] <= growth[i-1] {
			t.Fatalf("corpus coverage not monotonically increasing: %v", growth)
		}
	}
	if growth[len(growth)-1] != stats.CoveragePoints {
		t.Fatalf("final log %d != stats %d", growth[len(growth)-1], stats.CoveragePoints)
	}
	if !strings.Contains(stats.String(), "corpus=") {
		t.Fatalf("Stats.String missing corpus tallies: %s", stats)
	}
	// The default (unguided) rendering must stay byte-stable.
	if strings.Contains((Stats{}).String(), "corpus=") {
		t.Fatal("unguided Stats.String must not mention corpus")
	}
}

// TestLongCampaignNotCutShort: the differential path's watchdog budget
// grows with the cycles driven, so at a long run length every module the
// frontend accepts is checked and none is skipped by the watchdog.
func TestLongCampaignNotCutShort(t *testing.T) {
	const count, cycles = 12, 4096
	rejected := 0
	for seed := int64(1); seed < 1+count; seed++ {
		file, diags := verilog.Parse(Generate(seed))
		if diags.HasErrors() {
			rejected++
			continue
		}
		if _, diags := sema.Elaborate(file); diags.HasErrors() {
			rejected++
		}
	}
	stats, _ := Run(Options{Seed: 1, Count: count, Cycles: cycles})
	if stats.Skipped != rejected || stats.Checked != count-rejected {
		t.Fatalf("%d cycles: checked %d, skipped %d; want %d checked, %d skipped (frontend rejections only)",
			cycles, stats.Checked, stats.Skipped, count-rejected, rejected)
	}
}
