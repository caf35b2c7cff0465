package core

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/agent"
	"repro/internal/analyze"
	"repro/internal/diag"
	"repro/internal/llm"
	"repro/internal/memo"
)

const paperClkExample = `module top_module (
	input [99:0] in,
	output reg [99:0] out
);
	always @(posedge clk) begin
		for (int i = 0; i < 100; i = i + 1) begin
			out[i] <= in[99 - i];
		end
	end
endmodule
`

func TestNewValidatesOptions(t *testing.T) {
	if _, err := New(Options{CompilerName: "vcs"}); err == nil {
		t.Fatal("unknown compiler must be rejected")
	}
	if _, err := New(Options{PersonaName: "llama"}); err == nil {
		t.Fatal("unknown persona must be rejected")
	}
	f, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f.Compiler().Name() != "Quartus" {
		t.Fatalf("default compiler = %s", f.Compiler().Name())
	}
	if f.Database() != nil {
		t.Fatal("RAG must be off by default")
	}
}

func TestFixPaperExampleReActRAG(t *testing.T) {
	f, err := New(Options{CompilerName: "quartus", RAG: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// The clk case is a high-competence category with guidance; across a
	// handful of seeds at least most runs must fix it.
	fixed := 0
	for seed := int64(0); seed < 10; seed++ {
		tr := f.Fix("vector100r.sv", paperClkExample, seed)
		if tr.Success {
			fixed++
			if res := f.Compiler().Compile("x.sv", tr.FinalCode); !res.Ok {
				t.Fatalf("transcript claims success but code does not compile:\n%s", tr.FinalCode)
			}
		}
	}
	if fixed < 7 {
		t.Fatalf("ReAct+RAG fixed only %d/10 runs of the paper's canonical example", fixed)
	}
}

func TestFixTranscriptShape(t *testing.T) {
	f, err := New(Options{CompilerName: "quartus", RAG: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := f.Fix("main.v", paperClkExample, 7)
	r := tr.Render()
	for _, want := range []string{"Thought 1:", "Action", "Observation"} {
		if !strings.Contains(r, want) {
			t.Fatalf("transcript missing %q:\n%s", want, r)
		}
	}
	if tr.Iterations < 1 {
		t.Fatal("at least one revision must be recorded")
	}
}

func TestFixOneShotRunsSingleIteration(t *testing.T) {
	f, err := New(Options{CompilerName: "quartus", Mode: ModeOneShot, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr := f.Fix("main.v", paperClkExample, 11)
	if tr.Iterations != 1 {
		t.Fatalf("one-shot made %d iterations", tr.Iterations)
	}
}

func TestFixCleanCodeIsImmediateSuccess(t *testing.T) {
	clean := "module m(input a, output y);\n\tassign y = ~a;\nendmodule\n"
	f, err := New(Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tr := f.Fix("main.v", clean, 1)
	if !tr.Success || tr.Iterations != 0 {
		t.Fatalf("clean code: success=%v iterations=%d", tr.Success, tr.Iterations)
	}
}

func TestFixMarkdownWrappedCode(t *testing.T) {
	wrapped := "Sure! Here is the corrected module:\n```verilog\nmodule m(input a, output y);\n\tassign y = a;\nendmodule\n```\nHope this helps!"
	f, err := New(Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	tr := f.Fix("main.v", wrapped, 2)
	if !tr.Success {
		t.Fatalf("fixer should strip markdown and pass: rules=%v", tr.FixerRules)
	}
	if len(tr.FixerRules) == 0 {
		t.Fatal("fixer rules should have fired")
	}
}

func TestCacheIsTransparent(t *testing.T) {
	// The memo layer must not change a single transcript byte: run the
	// same sessions through a cached and an uncached fixer and compare.
	mk := func(cache bool) *RTLFixer {
		f, err := New(Options{CompilerName: "quartus", RAG: true, Seed: 42, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	plain, cached := mk(false), mk(true)
	for seed := int64(0); seed < 6; seed++ {
		a := plain.Fix("vector100r.sv", paperClkExample, seed)
		b := cached.Fix("vector100r.sv", paperClkExample, seed)
		if a.Render() != b.Render() || a.FinalCode != b.FinalCode {
			t.Fatalf("seed %d: cached transcript diverges:\n%s\nvs\n%s", seed, a.Render(), b.Render())
		}
	}
	s := cached.CacheStats()
	if s.Hits == 0 {
		t.Fatalf("repeated sessions produced no compile-cache hits: %+v", s)
	}
	if s.Lookups == 0 {
		t.Fatalf("RAG retrievals were not served by the index: %+v", s)
	}
	if z := plain.CacheStats(); z != (memo.Stats{}) {
		t.Fatalf("uncached fixer reports stats: %+v", z)
	}
}

func TestCacheStatsZeroWhenOff(t *testing.T) {
	f, err := New(Options{CompilerName: "quartus", RAG: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f.Fix("main.v", paperClkExample, 3)
	if s := f.CacheStats(); s != (memo.Stats{}) {
		t.Fatalf("cache off but stats non-zero: %+v", s)
	}
}

func TestLintAndOptions(t *testing.T) {
	f, err := New(Options{Seed: 1, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := f.Options()
	if opts.CompilerName != "quartus" || opts.PersonaName != "gpt-3.5" || opts.Mode != ModeReAct {
		t.Fatalf("Options() missing defaults: %+v", opts)
	}
	if res := f.Lint("main.v", paperClkExample); res.Ok {
		t.Fatal("Lint reported the paper's broken example as clean")
	} else if res.Log == "" {
		t.Fatal("Lint returned no log for a failing compile")
	}
	if res := f.Lint("main.v", "module m;\nendmodule\n"); !res.Ok {
		t.Fatalf("Lint rejected a clean module: %s", res.Log)
	}
	// Lint goes through the compile cache: a repeat is a hit.
	before := f.CacheStats()
	f.Lint("main.v", paperClkExample)
	if after := f.CacheStats(); after.Hits <= before.Hits {
		t.Fatalf("repeated Lint did not hit the compile cache: %+v -> %+v", before, after)
	}
}

// TestPooledModelGeneratorsMatchFreshOnes: FixTraced's pooled,
// reseeded generators give every run the stream a fresh
// rand.NewSource(Seed^sampleSeed) would, even with many runs in flight
// at once (run under -race: a generator shared by two live runs would
// both race and change their transcripts).
func TestPooledModelGeneratorsMatchFreshOnes(t *testing.T) {
	f, err := New(Options{Seed: 11, RAG: true})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 32
	want := make([]string, runs)
	for i := range want {
		cfg := agent.Config{
			Compiler: f.compiler, Model: llm.NewModel(f.persona, f.opts.Seed^int64(i)),
			DB: f.db, Retriever: f.retriever, Filename: "main.v", SampleSeed: int64(i),
		}
		want[i] = agent.RunReAct(cfg, paperClkExample).Render()
	}
	got := make([]string, runs)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = f.Fix("main.v", paperClkExample, int64(i)).Render()
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sample %d: pooled-generator transcript differs from a fresh model's", i)
		}
	}
}

// TestLintReadsFindingsFromCompileResult: Lint appends the findings the
// compile result carries, which are exactly analyze.Source's for the
// text, and a cached repeat reuses them rather than re-analyzing.
func TestLintReadsFindingsFromCompileResult(t *testing.T) {
	const latch = "module top_module(input sel, input a, output reg y);\n\talways @(*) begin\n\t\tif (sel) y = a;\n\tend\nendmodule\n"
	f, err := New(Options{Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	want := analyze.Source(latch, analyze.Options{})
	if len(want) == 0 {
		t.Fatal("latch source has no findings")
	}
	first := f.Lint("main.v", latch)
	if got := first.Diags[len(first.Diags)-len(want):]; !reflect.DeepEqual(diag.List(got), want) {
		t.Fatalf("Lint findings %v, want %v", got, want)
	}
	again := f.Lint("main.v", latch)
	if &again.Diags[len(again.Diags)-1] == &first.Diags[len(first.Diags)-1] {
		t.Fatal("Lint appended into a shared diagnostics slice")
	}
	if a, b := first.Findings(), again.Findings(); &a[0] != &b[0] {
		t.Fatal("a cached Lint re-ran the analyzer")
	}
}
