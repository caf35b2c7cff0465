package repro

// One benchmark per table and figure of the paper's evaluation section.
// Each b.N iteration regenerates the artifact at a reduced-but-faithful
// configuration and reports the headline numbers as benchmark metrics, so
// `go test -bench=. -benchmem` doubles as the reproduction harness.
// cmd/benchmark runs the full-size versions.

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/curate"
	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/verilog"
)

// BenchmarkTable1 regenerates the fix-rate ablation grid (One-shot vs
// ReAct × RAG × feedback persona × LLM persona).
func BenchmarkTable1(b *testing.B) {
	entries, _ := curate.Build(curate.Options{Seed: 2024})
	b.ResetTimer()
	var last *bench.Table1Result
	for i := 0; i < b.N; i++ {
		last = bench.RunTable1(bench.Table1Config{Seed: 2024, Repeats: 2, Entries: entries})
	}
	if c, ok := last.Cell(core.ModeReAct, true, "Quartus", "gpt-3.5"); ok {
		b.ReportMetric(c.FixRate, "fixrate-react-rag-quartus")
	}
	if c, ok := last.Cell(core.ModeOneShot, false, "Quartus", "gpt-3.5"); ok {
		b.ReportMetric(c.FixRate, "fixrate-oneshot-quartus")
	}
}

// BenchmarkTable2 regenerates the pass@k before/after comparison on both
// VerilogEval suites.
func BenchmarkTable2(b *testing.B) {
	var last *bench.Table2Result
	for i := 0; i < b.N; i++ {
		last = bench.RunTable2(bench.Table2Config{Seed: 2024, SampleN: 4})
	}
	if row, ok := last.Row(dataset.SuiteMachine, "All"); ok {
		b.ReportMetric(row.Orig1, "machine-pass1-orig")
		b.ReportMetric(row.Fixed1, "machine-pass1-fixed")
	}
	if row, ok := last.Row(dataset.SuiteHuman, "All"); ok {
		b.ReportMetric(row.Orig1, "human-pass1-orig")
		b.ReportMetric(row.Fixed1, "human-pass1-fixed")
	}
}

// BenchmarkTable3 regenerates the RTLLM generalization result.
func BenchmarkTable3(b *testing.B) {
	var last *bench.Table3Result
	for i := 0; i < b.N; i++ {
		last = bench.RunTable3(bench.Table3Config{Seed: 2024, SampleN: 10})
	}
	b.ReportMetric(last.OrigSyntaxRate, "syntax-rate-orig")
	b.ReportMetric(last.FixedSyntaxRate, "syntax-rate-fixed")
}

// BenchmarkFigure4 regenerates the outcome-ring shares (the same pipeline
// as Table 2; reported metric is the compile-error collapse on Human).
func BenchmarkFigure4(b *testing.B) {
	var last *bench.Table2Result
	for i := 0; i < b.N; i++ {
		last = bench.RunTable2(bench.Table2Config{
			Seed: 2024, SampleN: 4, Suites: []dataset.Suite{dataset.SuiteHuman}})
	}
	rings := last.Fig4[dataset.SuiteHuman]
	b.ReportMetric(rings.Inner["compile-error-easy"]+rings.Inner["compile-error-hard"], "compile-share-before")
	b.ReportMetric(rings.Outer["compile-error-easy"]+rings.Outer["compile-error-hard"], "compile-share-after")
}

// BenchmarkFigure7 regenerates the ReAct iteration histogram.
func BenchmarkFigure7(b *testing.B) {
	entries, _ := curate.Build(curate.Options{Seed: 2024})
	fixer, err := core.New(core.Options{
		CompilerName: "quartus", RAG: true, Mode: core.ModeReAct, Seed: 2024})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var hist [11]int
	for i := 0; i < b.N; i++ {
		hist = [11]int{}
		for _, e := range entries {
			tr := fixer.Fix("main.v", e.Code, e.SampleSeed)
			if tr.Success && tr.Iterations < len(hist) {
				hist[tr.Iterations]++
			}
		}
	}
	total, first := 0, hist[1]
	for i := 1; i < len(hist); i++ {
		total += hist[i]
	}
	if total > 0 {
		b.ReportMetric(float64(first)/float64(total), "single-iteration-share")
	}
}

// BenchmarkAblationRetrievers compares retrieval strategies (exact-tag vs
// fuzzy vs keyword vs no RAG) under the full configuration.
func BenchmarkAblationRetrievers(b *testing.B) {
	entries, _ := curate.Build(curate.Options{Seed: 2024})
	b.ResetTimer()
	var last []bench.AblationResult
	for i := 0; i < b.N; i++ {
		last = bench.RunRetrieverAblation(2024, 1, entries, 0)
	}
	for _, r := range last {
		b.ReportMetric(r.FixRate, "fixrate-"+r.Name)
	}
}

// BenchmarkAblationIterationBudget sweeps the ReAct budget 1..10.
func BenchmarkAblationIterationBudget(b *testing.B) {
	entries, _ := curate.Build(curate.Options{Seed: 2024})
	b.ResetTimer()
	var last []bench.AblationResult
	for i := 0; i < b.N; i++ {
		last = bench.RunIterationBudgetAblation(2024, 1, 10, entries, 0)
	}
	b.ReportMetric(last[0].FixRate, "fixrate-budget1")
	b.ReportMetric(last[len(last)-1].FixRate, "fixrate-budget10")
}

// BenchmarkAblationGuidanceSize truncates the curated guidance DB.
func BenchmarkAblationGuidanceSize(b *testing.B) {
	entries, _ := curate.Build(curate.Options{Seed: 2024})
	b.ResetTimer()
	var last []bench.AblationResult
	for i := 0; i < b.N; i++ {
		last = bench.RunGuidanceSizeAblation(2024, 1, entries, 0)
	}
	b.ReportMetric(last[len(last)-1].FixRate-last[0].FixRate, "rag-gain-full-db")
}

// BenchmarkSimFeedback measures the paper's §5 extension: limited gains
// from simulation-error feedback beyond syntax fixing.
func BenchmarkSimFeedback(b *testing.B) {
	var last *bench.SimFeedbackResult
	for i := 0; i < b.N; i++ {
		last = bench.RunSimFeedback(2024, 4)
	}
	b.ReportMetric(last.Pass1AfterSimRepair-last.Pass1AfterSyntax, "simfeedback-gain")
	b.ReportMetric(last.EasyGain, "simfeedback-gain-easy")
	b.ReportMetric(last.HardGain, "simfeedback-gain-hard")
}

// BenchmarkCuration measures the VerilogEval-syntax pipeline (sampling →
// filtering → DBSCAN clustering → selection).
func BenchmarkCuration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		entries, _ := curate.Build(curate.Options{Seed: int64(i)})
		if len(entries) != curate.TargetSize {
			b.Fatalf("curated %d entries", len(entries))
		}
	}
}

// BenchmarkPipelineSpeedup times the same Table 1 slice (ReAct + RAG +
// Quartus, the most expensive cell) through a 1-worker and a NumCPU-worker
// pool and reports the wall-clock ratio. The aggregates are asserted
// identical, so the metric isolates pure scheduling gain.
func BenchmarkPipelineSpeedup(b *testing.B) {
	entries, _ := curate.Build(curate.Options{Seed: 2024})
	cfg := bench.Table1Config{Seed: 2024, Repeats: 2, Entries: entries}
	combo := func(workers int) *bench.Table1Result {
		c := cfg
		c.Workers = workers
		return bench.RunTable1(c)
	}
	b.ResetTimer()
	var serial, parallel time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		one := combo(1)
		t1 := time.Now()
		many := combo(runtime.NumCPU())
		t2 := time.Now()
		serial += t1.Sub(t0)
		parallel += t2.Sub(t1)
		if one.Render() != many.Render() || one.RenderFigure7() != many.RenderFigure7() {
			b.Fatal("parallel run is not byte-identical to serial run")
		}
	}
	b.ReportMetric(float64(runtime.NumCPU()), "workers")
	b.ReportMetric(serial.Seconds()/float64(b.N), "serial-sec/op")
	b.ReportMetric(parallel.Seconds()/float64(b.N), "parallel-sec/op")
	b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup")
}

// TestPipelineTableDeterminism is the acceptance gate for the evaluation
// pipeline: every table, the retriever ablation and the guidance-size
// ablation must render byte-identically for 1 worker and for a larger
// pool.
func TestPipelineTableDeterminism(t *testing.T) {
	entries, _ := curate.Build(curate.Options{Seed: 2024})
	slice := entries
	if len(slice) > 8 {
		slice = slice[:8]
	}
	t1a := bench.RunTable1(bench.Table1Config{Seed: 2024, Repeats: 2, Entries: slice, Workers: 1})
	t1b := bench.RunTable1(bench.Table1Config{Seed: 2024, Repeats: 2, Entries: slice, Workers: 7})
	if t1a.Render() != t1b.Render() || t1a.RenderFigure7() != t1b.RenderFigure7() {
		t.Error("Table 1 output differs across worker counts")
	}
	t2a := bench.RunTable2(bench.Table2Config{Seed: 2024, SampleN: 3, MaxProblems: 6, Workers: 1})
	t2b := bench.RunTable2(bench.Table2Config{Seed: 2024, SampleN: 3, MaxProblems: 6, Workers: 5})
	if t2a.Render() != t2b.Render() || t2a.RenderFigure4() != t2b.RenderFigure4() {
		t.Error("Table 2 output differs across worker counts")
	}
	t3a := bench.RunTable3(bench.Table3Config{Seed: 2024, SampleN: 4, Workers: 1})
	t3b := bench.RunTable3(bench.Table3Config{Seed: 2024, SampleN: 4, Workers: 3})
	if t3a.Render() != t3b.Render() {
		t.Error("Table 3 output differs across worker counts")
	}
	ablA := bench.RunRetrieverAblation(2024, 1, slice, 1)
	ablB := bench.RunRetrieverAblation(2024, 1, slice, 3)
	if bench.RenderAblation("x", ablA) != bench.RenderAblation("x", ablB) {
		t.Error("retriever ablation differs across worker counts")
	}
	gsA := bench.RunGuidanceSizeAblation(2024, 1, slice, 1)
	gsB := bench.RunGuidanceSizeAblation(2024, 1, slice, 3)
	if bench.RenderAblation("x", gsA) != bench.RenderAblation("x", gsB) {
		t.Error("guidance-size ablation differs across worker counts")
	}
}

// ---------- component micro-benchmarks ----------

const benchSource = `module top_module (
	input clk,
	input reset,
	input [31:0] in,
	output reg [31:0] out
);
	always @(posedge clk) begin
		if (reset)
			out <= 0;
		else begin
			for (int i = 0; i < 32; i = i + 1)
				out[i] <= in[31 - i];
		end
	end
endmodule
`

// BenchmarkParse measures the frontend lexer+parser.
func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, diags := verilog.Parse(benchSource); diags.HasErrors() {
			b.Fatal(diags.Summary())
		}
	}
}

// BenchmarkCompileQuartus measures the full frontend plus Quartus-style
// log rendering.
func BenchmarkCompileQuartus(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := (compiler.Quartus{}).Compile("bench.v", benchSource); !res.Ok {
			b.Fatal(res.Log)
		}
	}
}

// BenchmarkSimulateCounter measures the cycle simulator on a testbench
// run of the 8-bit counter problem.
func BenchmarkSimulateCounter(b *testing.B) {
	p, ok := dataset.ByID(dataset.SuiteHuman, "counter_up_w8")
	if !ok {
		b.Fatal("problem missing")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := p.Check(p.RefSource, newRand(int64(i)))
		if err != nil || !res.Passed() {
			b.Fatalf("reference failed: %v %v", err, res)
		}
	}
}

// BenchmarkReActFix measures one full agent session on the paper's Fig. 5
// example.
func BenchmarkReActFix(b *testing.B) {
	fixer, err := core.New(core.Options{
		CompilerName: "quartus", RAG: true, Mode: core.ModeReAct, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	src := `module top_module (
	input [99:0] in,
	output reg [99:0] out
);
	always @(posedge clk) begin
		for (int i = 0; i < 100; i = i + 1)
			out[i] <= in[99 - i];
	end
endmodule
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fixer.Fix("vector100r.sv", src, int64(i))
	}
}

// BenchmarkGenerate measures the simulated-LLM sample generator.
func BenchmarkGenerate(b *testing.B) {
	p, _ := dataset.ByID(dataset.SuiteHuman, "vector_reverse_w100")
	rates := llm.RatesFor("human", "hard")
	rng := newRand(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		llm.Generate(p.RefSource, rates, rng)
	}
}
