package memo_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/curate"
	"repro/internal/dataset"
	"repro/internal/diag"
	"repro/internal/inject"
	"repro/internal/llm"
	"repro/internal/memo"
	"repro/internal/sim"
	"repro/internal/verilog"
)

// differentialInputs returns, without repeats, every dataset reference,
// each reference under every inject mutator, two llm.Generate samples
// of each reference at fixed seeds, and the curated entries (seed 2024)
// with one more random injection each.
func differentialInputs(t testing.TB) []string {
	t.Helper()
	seen := map[string]bool{}
	var in []string
	add := func(src string) {
		if !seen[src] {
			seen[src] = true
			in = append(in, src)
		}
	}
	refs := 0
	for _, s := range []dataset.Suite{dataset.SuiteMachine, dataset.SuiteHuman, dataset.SuiteRTLLM} {
		for i, p := range dataset.Problems(s) {
			refs++
			add(p.RefSource)
			for _, m := range inject.All() {
				if out, _, ok := inject.Inject(p.RefSource, m, rand.New(rand.NewSource(int64(i)))); ok {
					add(out)
				}
			}
			rates := llm.RatesFor(string(p.Suite), string(p.Difficulty))
			for seed := int64(1); seed <= 2; seed++ {
				add(llm.Generate(p.RefSource, rates, rand.New(rand.NewSource(seed*104729+int64(i)))).Code)
			}
		}
	}
	entries, _ := curate.Build(curate.Options{Seed: 2024})
	if refs != 314 || len(entries) != 212 {
		t.Fatalf("%d references and %d curated entries, want 314 and 212", refs, len(entries))
	}
	for _, e := range entries {
		add(e.Code)
		out, _ := inject.InjectRandom(e.Code, 1, rand.New(rand.NewSource(e.SampleSeed)))
		add(out)
	}
	return in
}

func printAST(f *verilog.SourceFile) string {
	if f == nil {
		return "<nil>"
	}
	return verilog.Format(f)
}

// sameCompile reports how got differs from want in what a consumer of
// a compile reads, or "" when it does not.
func sameCompile(got, want compiler.Result) string {
	switch {
	case got.Ok != want.Ok:
		return "Ok"
	case got.Log != want.Log:
		return "Log"
	case !reflect.DeepEqual(got.Diags, want.Diags):
		return "Diags"
	case (got.Design == nil) != (want.Design == nil):
		return "Design"
	case !reflect.DeepEqual(got.Findings(), want.Findings()):
		return "Findings"
	case printAST(got.File) != printAST(want.File):
		return "printed AST"
	}
	return ""
}

// TestSharedFrontendMatchesPersonaCompile is the frontend artifact's
// differential oracle. Over every reference, its inject variants and
// generated samples, and the curated entries, each persona's cached
// compile — cold (rendered over the artifact) and warm (a compile-cache
// hit) — equals the persona's direct Compile, and the sim cache's
// Program and Frontend equal compiler.Frontend followed by sim.Compile.
// A planted FNV collision is recomputed, never served.
func TestSharedFrontendMatchesPersonaCompile(t *testing.T) {
	inputs := differentialInputs(t)
	personas := compiler.All()
	cached := make([]compiler.Compiler, len(personas))
	for i, p := range personas {
		cached[i] = memo.NewCompileCache(64).Cached(p)
	}
	sc := memo.NewSimCache(64)
	before := memo.TotalsByKind().Frontend
	for _, src := range inputs {
		for i, p := range personas {
			want := p.Compile("main.v", src)
			for _, pass := range []string{"cold", "warm"} {
				if diff := sameCompile(cached[i].Compile("main.v", src), want); diff != "" {
					t.Fatalf("%s %s: cached %s differs from a direct compile of\n%s", p.Name(), pass, diff, src)
				}
			}
		}
		if diff := sameSim(sc, src); diff != "" {
			t.Fatalf("sim cache %s differs from compiler.Frontend + sim.Compile for\n%s", diff, src)
		}
	}
	d := memo.TotalsByKind().Frontend.Sub(before)
	if d.Misses == 0 || d.Hits < 2*d.Misses {
		t.Fatalf("frontend artifacts %+v over %d sources: want each source parsed once and shared", d, len(inputs))
	}
	t.Logf("%d sources, frontend artifacts %+v", len(inputs), d)

	t.Run("collision", func(t *testing.T) {
		src, foreign := fmt.Sprintf("module collide_%d(input a, output y);\n\tassign y = a;\nendmodule\n", rand.Int63()), inputs[1]
		for _, p := range personas {
			memo.PlantFrontendCollision(src, foreign)
			before := memo.TotalsByKind().Frontend
			got := memo.NewCompileCache(0).Cached(p).Compile("main.v", src)
			if diff := sameCompile(got, p.Compile("main.v", src)); diff != "" {
				t.Fatalf("%s: compile after a collision: %s is the other source's", p.Name(), diff)
			}
			if d := memo.TotalsByKind().Frontend.Sub(before); d.Misses != 1 || d.Hits != 0 || d.Evictions != 1 {
				t.Fatalf("%s: collision counted %+v, want one miss and one eviction", p.Name(), d)
			}
		}
		memo.PlantFrontendCollision(src, foreign)
		if diff := sameSim(memo.NewSimCache(0), src); diff != "" {
			t.Fatalf("sim cache after a collision: %s is the other source's", diff)
		}
	})
}

// sameSim compares the sim cache's view of src with the uncached
// reference: compiler.Frontend, then sim.Compile of its design.
func sameSim(sc *memo.SimCache, src string) string {
	prog, design, diags := sc.Program(src)
	file, design2, diags2 := sc.Frontend(src)
	wantFile, wantDesign, wantDiags := compiler.Frontend(src)
	var wantProg *sim.Program
	if wantDesign != nil {
		if p, err := sim.Compile(wantDesign); err == nil {
			wantProg = p
		}
	}
	switch {
	case design != design2 || !reflect.DeepEqual(diags, diags2):
		return "Program vs Frontend"
	case !reflect.DeepEqual(diags, wantDiags):
		return "diagnostics"
	case !reflect.DeepEqual(design, wantDesign):
		return "design"
	case printAST(file) != printAST(wantFile):
		return "printed AST"
	case !reflect.DeepEqual(prog, wantProg):
		return "program"
	}
	return ""
}

// latchSrc elaborates with an error and holds an inferred latch, so it
// has diagnostics and lint findings; tag keeps it out of the artifacts
// other tests left behind.
func latchSrc(tag string) string {
	return fmt.Sprintf(`module top_module(input sel, input a, output reg y);
	// %s
	always @(*) begin
		if (sel) y = a;
	end
	assign z = missing;
endmodule
`, tag)
}

// TestFixersShareOneFrontend: fixers of the three personas, each with
// its own compile cache, compiling one source parse it once; the sim
// oracle then reuses that parse too. Each persona still renders its own
// log, and the compile caches count their misses as before.
func TestFixersShareOneFrontend(t *testing.T) {
	src := latchSrc(t.Name())
	before := memo.TotalsByKind()
	var firstFinding []*diag.Diagnostic
	for _, name := range []string{"simple", "iverilog", "quartus"} {
		f, err := core.New(core.Options{CompilerName: name, Cache: true})
		if err != nil {
			t.Fatal(err)
		}
		res := f.Lint("main.v", src)
		if res.Log == "" {
			t.Fatalf("%s rendered no log", name)
		}
		fs := res.Findings()
		if len(fs) == 0 {
			t.Fatal("latch source has no findings")
		}
		firstFinding = append(firstFinding, &fs[0])
		if f.CacheStats().Misses != 1 {
			t.Fatalf("%s: compile cache stats %+v, want one miss", name, f.CacheStats())
		}
	}
	if _, design, _ := memo.NewSimCache(0).Program(src); design != nil {
		t.Fatal("a source with errors must have no design")
	}
	after := memo.TotalsByKind()
	if d := after.Frontend.Sub(before.Frontend); d.Misses != 1 || d.Hits != 3 {
		t.Fatalf("frontend artifacts %+v, want 1 miss and 3 hits (two personas and the sim oracle)", d)
	}
	if d := after.Compile.Sub(before.Compile); d.Misses != 3 || d.Hits != 0 {
		t.Fatalf("compile caches %+v, want 3 misses", d)
	}
	if firstFinding[0] != firstFinding[1] || firstFinding[1] != firstFinding[2] {
		t.Fatal("the personas' findings were computed more than once")
	}
}

// TestSharedFrontendConcurrent runs 8 goroutines, each with its own
// compile cache per persona as a fixer has, over shared sources, while
// the sim oracle compiles and simulates the same sources (run under
// -race in CI). Every result equals the direct compile, and each source
// is parsed exactly once: concurrent misses are single-flight.
func TestSharedFrontendConcurrent(t *testing.T) {
	var srcs []string
	for i := 0; i < 12; i++ {
		tag := fmt.Sprintf("%s %d", t.Name(), i)
		srcs = append(srcs,
			latchSrc(tag),
			fmt.Sprintf("module top_module(input clk, input [7:0] d, output reg [7:0] q);\n\t// %s\n\talways @(posedge clk) q <= q + d;\nendmodule\n", tag),
			fmt.Sprintf("module top_module(input a, output y)\n\t// %s\n\tassign y = a;\nendmodule\n", tag),
		)
	}
	personas := compiler.All()
	want := make([][]compiler.Result, len(personas))
	for i, p := range personas {
		for _, src := range srcs {
			want[i] = append(want[i], p.Compile("main.v", src))
		}
	}
	sc := memo.NewSimCache(0)
	before := memo.TotalsByKind().Frontend
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cached := make([]compiler.Compiler, len(personas))
			for i, p := range personas {
				cached[i] = memo.NewCompileCache(0).Cached(p)
			}
			for k := range srcs {
				j := (k + 5*g) % len(srcs)
				for i := range personas {
					i := (i + g) % len(personas)
					if diff := sameCompile(cached[i].Compile("main.v", srcs[j]), want[i][j]); diff != "" {
						t.Errorf("goroutine %d, %s: %s differs", g, personas[i].Name(), diff)
						return
					}
				}
				if prog, _, _ := sc.Program(srcs[j]); prog != nil {
					s := sim.NewFromProgram(prog)
					s.SetInputUint("d", uint64(g))
					if err := s.ClockPulse("clk"); err != nil || s.Get("q").Uint64() != uint64(g) {
						t.Errorf("goroutine %d: shared program simulated wrong (err %v)", g, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if d := memo.TotalsByKind().Frontend.Sub(before); d.Misses != uint64(len(srcs)) {
		t.Fatalf("frontend artifacts %+v over %d sources, want one miss each", d, len(srcs))
	}
}

// TestFrontendCacheBounded: the artifact cache never holds more than its
// capacity (rounded up to shard granularity, never more than double).
func TestFrontendCacheBounded(t *testing.T) {
	bound := memo.FrontendBound()
	if bound < memo.FrontendCapacity || bound > 2*memo.FrontendCapacity {
		t.Fatalf("bound %d outside [%d, %d]", bound, memo.FrontendCapacity, 2*memo.FrontendCapacity)
	}
	before := memo.TotalsByKind().Frontend
	cached := memo.NewCompileCache(0).Cached(compiler.Simple{})
	for i := 0; i < 3*memo.FrontendCapacity; i++ {
		cached.Compile("main.v", fmt.Sprintf("module bound_%d(); endmodule\n", i))
		if i%256 == 0 && memo.FrontendLen() > bound {
			t.Fatalf("after %d sources the cache holds %d artifacts, bound %d", i+1, memo.FrontendLen(), bound)
		}
	}
	if n := memo.FrontendLen(); n > bound {
		t.Fatalf("cache holds %d artifacts, bound %d", n, bound)
	}
	if d := memo.TotalsByKind().Frontend.Sub(before); d.Evictions == 0 {
		t.Fatal("no evictions past capacity")
	}
}

// TestSharedArtifactIsNotMutated: the diagnostics and AST every persona
// and fixer share are read-only in practice. After lints (which append
// findings to a copy), fixes and sim checks of the source, a fresh
// compile cache is served the same, unchanged artifact.
func TestSharedArtifactIsNotMutated(t *testing.T) {
	src := latchSrc(t.Name())
	first := memo.NewCompileCache(0).Cached(compiler.Quartus{}).Compile("main.v", src)
	diags, ast := slices.Clone(first.Diags), printAST(first.File)
	for _, name := range []string{"simple", "iverilog", "quartus"} {
		f, err := core.New(core.Options{CompilerName: name, Cache: true, RAG: name != "simple"})
		if err != nil {
			t.Fatal(err)
		}
		if lint := f.Lint("main.v", src); len(lint.Diags) <= len(diags) {
			t.Fatalf("%s: lint appended no findings", name)
		}
		f.Fix("main.v", src, 1)
	}
	memo.NewSimCache(0).Frontend(src)
	again := memo.NewCompileCache(0).Cached(compiler.IVerilog{}).Compile("main.v", src)
	if &again.Diags[0] != &first.Diags[0] || again.File != first.File {
		t.Fatal("a fresh compile cache was not served the shared artifact")
	}
	if !reflect.DeepEqual(again.Diags, diags) || printAST(again.File) != ast {
		t.Fatal("a caller mutated the shared diagnostics or AST")
	}
}

// TestFrontendIsUncached: compiler.Frontend stays the independent
// reference; calling it touches no memo layer.
func TestFrontendIsUncached(t *testing.T) {
	before := memo.TotalsByKind()
	for i := 0; i < 3; i++ {
		compiler.Frontend(latchSrc(t.Name()))
	}
	if after := memo.TotalsByKind(); after != before {
		t.Fatalf("compiler.Frontend moved the memo counters: %+v -> %+v", before, after)
	}
}
