package analyze_test

import (
	"testing"

	"repro/internal/analyze"
	"repro/internal/dataset"
	"repro/internal/diag"
)

// TestCorpusSweep runs every rule over all curated reference solutions
// and snapshots findings-by-rule counts. The references are handwritten
// known-good RTL, so the golden is zero findings per rule: any nonzero
// count is a rule false positive (or an accidental severity/category
// drift) introduced by a change to the analyzer or the frontend.
func TestCorpusSweep(t *testing.T) {
	golden := map[string]int{
		"L001": 0, "L002": 0, "L003": 0, "L004": 0, "L005": 0,
		"L006": 0, "L007": 0, "L008": 0, "L009": 0, "L010": 0,
	}
	counts := map[string]int{}
	total := 0
	for _, suite := range []dataset.Suite{dataset.SuiteMachine, dataset.SuiteHuman, dataset.SuiteRTLLM} {
		for _, p := range dataset.Problems(suite) {
			total++
			for _, d := range analyze.Source(p.RefSource, analyze.Options{}) {
				counts[d.Rule]++
				if counts[d.Rule] <= 3 {
					t.Logf("%s/%s [%s] line %d: %s", suite, p.ID, d.Rule, d.Pos.Line, d.Message)
				}
				if d.Severity != diag.SeverityWarning {
					t.Errorf("%s/%s: severity drift: %s is %s", suite, p.ID, d.Rule, d.Severity)
				}
			}
		}
	}
	if total != 314 {
		t.Fatalf("curated corpus changed size: %d problems (sweep expects 314)", total)
	}
	for _, r := range analyze.Rules() {
		if _, ok := golden[r.Code]; !ok {
			t.Errorf("rule %s missing from the golden snapshot; update it deliberately", r.Code)
		}
		if counts[r.Code] != golden[r.Code] {
			t.Errorf("rule %s: %d findings over the corpus, golden says %d", r.Code, counts[r.Code], golden[r.Code])
		}
	}
}

// TestDirtyFixtureSweep pins nonzero findings-by-rule counts on a fixed
// set of deliberately dirty modules — the complement of the clean-corpus
// gate: a rule that silently stops firing shows up here.
func TestDirtyFixtureSweep(t *testing.T) {
	fixtures := []string{
		// latch + incomplete sensitivity + stale read
		`module d1(input sel, input a, input b, output reg y, output reg z);
	always @(a) begin
		z = y & b;
		if (sel) y = a;
	end
endmodule`,
		// comb loop + nonblocking-in-comb + dead input
		`module d2(input a, input spare, output reg y);
	wire w;
	assign w = y | a;
	always @(*) y <= w ^ a;
endmodule`,
		// races + blocking-in-seq + width truncation + alias store
		`module d3(input clk, input [7:0] a, input [7:0] b, output reg [3:0] y, output reg [7:0] q);
	always @(posedge clk) begin
		q = a;
		q[4:1] = q;
	end
	always @(posedge clk) q <= b;
	always @(*) y = a + b;
endmodule`,
		// shared loop variable NBA + written-never-read scratch
		`module d4(input clk, input [7:0] d, output reg [7:0] q);
	integer i;
	reg [7:0] scratch;
	always @(posedge clk) begin
		for (i = 0; i < 4; i = i + 1) q[i] <= d[i];
		scratch <= d;
	end
	always @(posedge clk) begin
		for (i = 4; i < 8; i = i + 1) q[i] <= d[i];
	end
endmodule`,
	}
	want := map[string]int{
		"L001": 1, // d1: y latch
		"L002": 1, // d1: @(a) misses b (y is written, sel... also sel missing) — one finding per block
		"L003": 1, // d2: y <= in comb
		"L004": 1, // d3: q = a blocking in clocked block (one per stmt-chain)
		"L005": 1, // d3: q written from two always blocks
		"L006": 1, // d2: y -> w -> y
		"L007": 1, // d3: a+b (8 bits) into y[3:0]
		"L008": 1, // d1: z reads y before assignment
		"L009": 2, // d2: spare unread input; d4: scratch written never read
		"L010": 2, // d3: q[4:1] = q; d4: shared i
	}
	counts := map[string]int{}
	for i, src := range fixtures {
		fs := analyze.Source(src, analyze.Options{})
		if len(fs) == 0 {
			t.Errorf("fixture %d produced no findings", i+1)
		}
		for _, d := range fs {
			counts[d.Rule]++
		}
	}
	for code, n := range want {
		if counts[code] < n {
			t.Errorf("rule %s: %d findings over fixtures, want at least %d", code, counts[code], n)
		}
	}
}
