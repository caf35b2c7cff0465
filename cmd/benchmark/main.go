// Command benchmark regenerates the paper's evaluation artifacts: Table 1
// (fix-rate ablation), Table 2 (pass@k before/after fixing), Table 3
// (RTLLM generalization), Figure 4 (outcome rings), and Figure 7 (ReAct
// iteration histogram).
//
// Usage:
//
//	benchmark -exp table1            # one experiment
//	benchmark -exp all               # everything (the default)
//	benchmark -exp table1 -repeats 3 # quicker, noisier
//	benchmark -workers 8             # size the evaluation pool
//	benchmark -cache=false           # disable the per-fixer memoization layer
//	benchmark -exp table1 -json      # machine-readable results on stdout
//	benchmark -exp table1 -stages    # stage latency table on stderr
//
// The expensive agent runs are fanned out over a worker pool
// (internal/pipeline) and memoized through the sharded cache layer
// (internal/memo); output is byte-identical for any -workers value and
// for -cache on or off. Cache counters go to stderr, never stdout, so
// table output stays comparable across configurations.
//
// With -json, stdout carries exactly one JSON document — an object with
// "schema", "seed", and one entry per selected experiment under
// "experiments" — and the human tables plus timing lines move to stderr,
// so dashboards (e.g. ones fed by rtlfixerd's /v1/stats) can consume the
// results without scraping.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/curate"
	"repro/internal/memo"
	"repro/internal/trace"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1, table2, table3, figure4, figure7, curation, ablation, simfeedback, analyzer, or all")
	seed := flag.Int64("seed", 2024, "random seed")
	repeats := flag.Int("repeats", 10, "table 1 repeats per sample (paper: 10)")
	samples := flag.Int("samples", 20, "table 2/3 samples per problem (paper: 20)")
	workers := flag.Int("workers", runtime.NumCPU(), "evaluation pool size (output is identical for any value)")
	cache := flag.Bool("cache", true, "enable the per-fixer memoization layer: compile cache and retrieval result cache (output is identical either way; the process-wide caches of the model's blind inspection and the sim oracle stay on)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON on stdout (tables move to stderr)")
	stages := flag.Bool("stages", false, "trace every agent job and print a per-stage latency table to stderr at exit")
	coverage := flag.Bool("coverage", false, "print a per-problem reference-design toggle-coverage table to stderr at exit")
	flag.Parse()

	// Stage attribution rides the same trace layer the daemon uses: a
	// collector on the bench pipeline seam, folded per span name. The
	// table goes to stderr with the cache counters — stdout tables stay
	// byte-identical with or without -stages.
	var stageAgg *trace.StageAgg
	if *stages {
		stageAgg = trace.NewStageAgg()
		tracer := trace.NewCollector(1, 0, 0)
		tracer.SetOnFinish(stageAgg.Observe)
		bench.SetTracer(tracer)
		defer func() {
			if table := trace.RenderStageTable(stageAgg.Snapshot()); table != "" {
				fmt.Fprint(os.Stderr, table)
			}
		}()
	}

	// The coverage table, like -stages, is stderr-only at exit: stdout
	// tables stay byte-identical with or without the flag.
	if *coverage {
		defer func() {
			fmt.Fprint(os.Stderr, bench.RenderCoverage(bench.CoverageReport(*seed)))
		}()
	}

	// Under -json the human-readable stream moves wholesale to stderr so
	// stdout is exactly one JSON document.
	human := os.Stdout
	if *jsonOut {
		human = os.Stderr
	}
	experiments := map[string]any{}

	// run gates one experiment on -exp, times it, and (with -json)
	// collects its machine-readable form under name.
	run := func(name string, f func() any) {
		if *exp != "all" && *exp != name {
			return
		}
		start := time.Now()
		before := memo.TotalsByKind()
		if v := f(); *jsonOut && v != nil {
			experiments[name] = v
		}
		fmt.Fprintf(human, "[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		printCacheDeltas(name, before, memo.TotalsByKind())
	}

	var t1 *bench.Table1Result
	table1 := func() *bench.Table1Result {
		if t1 == nil {
			t1 = bench.RunTable1(bench.Table1Config{Seed: *seed, Repeats: *repeats, Workers: *workers, Cache: *cache})
		}
		return t1
	}

	var t2 *bench.Table2Result
	table2 := func() *bench.Table2Result {
		if t2 == nil {
			t2 = bench.RunTable2(bench.Table2Config{Seed: *seed, SampleN: *samples, Workers: *workers, Cache: *cache})
		}
		return t2
	}

	run("curation", func() any {
		entries, stats := curate.Build(curate.Options{Seed: *seed})
		fmt.Fprintln(human, "VerilogEval-syntax curation pipeline:")
		fmt.Fprintf(human, "  sampled:          %d\n", stats.Sampled)
		fmt.Fprintf(human, "  compile-failing:  %d\n", stats.CompileFailing)
		fmt.Fprintf(human, "  after filtering:  %d\n", stats.Filtered)
		fmt.Fprintf(human, "  DBSCAN clusters:  %d\n", stats.Clusters)
		fmt.Fprintf(human, "  final dataset:    %d erroneous implementations\n", len(entries))
		return bench.CurationJSON{
			Sampled:        stats.Sampled,
			CompileFailing: stats.CompileFailing,
			Filtered:       stats.Filtered,
			Clusters:       stats.Clusters,
			Final:          len(entries),
		}
	})
	run("table1", func() any {
		fmt.Fprint(human, table1().Render())
		return table1().JSON()
	})
	run("figure7", func() any {
		fmt.Fprint(human, table1().RenderFigure7())
		return table1().JSON().IterationHist
	})
	run("table2", func() any {
		fmt.Fprint(human, table2().Render())
		return table2().JSON()
	})
	run("figure4", func() any {
		fmt.Fprint(human, table2().RenderFigure4())
		return table2().JSON().Figure4
	})
	run("table3", func() any {
		res := bench.RunTable3(bench.Table3Config{Seed: *seed, SampleN: *samples, Workers: *workers, Cache: *cache})
		fmt.Fprint(human, res.Render())
		return res.JSON()
	})
	run("ablation", func() any {
		entries, _ := curate.Build(curate.Options{Seed: *seed})
		retriever := bench.RunRetrieverAblation(*seed, 3, entries, *workers, *cache)
		budget := bench.RunIterationBudgetAblation(*seed, 3, 10, entries, *workers, *cache)
		guidance := bench.RunGuidanceSizeAblation(*seed, 3, entries, *workers, *cache)
		fmt.Fprint(human, bench.RenderAblation("Retriever ablation (ReAct+RAG+Quartus fix rate):", retriever))
		fmt.Fprint(human, bench.RenderAblation("Iteration-budget ablation:", budget))
		fmt.Fprint(human, bench.RenderAblation("Guidance-size ablation (Quartus DB truncated):", guidance))
		return map[string]any{
			"retriever":        bench.AblationsJSON(retriever),
			"iteration_budget": bench.AblationsJSON(budget),
			"guidance_size":    bench.AblationsJSON(guidance),
		}
	})
	run("simfeedback", func() any {
		res := bench.RunSimFeedback(*seed, *samples/2)
		fmt.Fprint(human, res.Render())
		return res.JSON()
	})
	run("analyzer", func() any {
		entries, _ := curate.Build(curate.Options{Seed: *seed})
		res := bench.RunAnalyzerAB(*seed, *repeats, entries, *workers, *cache)
		fmt.Fprint(human, res.Render())
		return res.JSON()
	})

	if *exp != "all" {
		switch *exp {
		case "table1", "table2", "table3", "figure4", "figure7", "curation",
			"ablation", "simfeedback", "analyzer":
		default:
			fmt.Fprintf(os.Stderr, "benchmark: unknown experiment %q\n", *exp)
			os.Exit(2)
		}
	}

	if *jsonOut {
		doc := map[string]any{
			"schema":      "rtlfixer-bench/v1",
			"seed":        *seed,
			"experiments": experiments,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: encode: %v\n", err)
			os.Exit(1)
		}
	}
}

// printCacheDeltas writes one stderr line per memo layer (frontend
// artifacts, compile cache, sim cache, reference traces, retrieval
// index, text reads) that one experiment touched. It runs with -cache
// on or off: the process-wide layers stay on either way.
func printCacheDeltas(exp string, before, after memo.KindTotals) {
	if d := after.Frontend.Sub(before.Frontend); d != (memo.Stats{}) {
		fmt.Fprintf(os.Stderr, "[%s frontend artifacts: %d hits, %d misses, %d evictions]\n", exp, d.Hits, d.Misses, d.Evictions)
	}
	if d := after.Compile.Sub(before.Compile); d != (memo.Stats{}) {
		fmt.Fprintf(os.Stderr, "[%s compile cache: %d hits, %d misses, %d evictions]\n", exp, d.Hits, d.Misses, d.Evictions)
	}
	if d := after.Sim.Sub(before.Sim); d != (memo.Stats{}) {
		fmt.Fprintf(os.Stderr, "[%s sim cache: %d hits, %d misses, %d evictions]\n", exp, d.Hits, d.Misses, d.Evictions)
	}
	if d := after.Trace.Sub(before.Trace); d != (memo.Stats{}) {
		fmt.Fprintf(os.Stderr, "[%s reference traces: %d hits, %d misses, %d evictions]\n", exp, d.Hits, d.Misses, d.Evictions)
	}
	if d := after.Retrieval.Sub(before.Retrieval); d != (memo.Stats{}) {
		fmt.Fprintf(os.Stderr, "[%s retrieval index: %d hits, %d misses, %d evictions]\n", exp, d.Hits, d.Misses, d.Evictions)
	}
	if d := after.Reads.Sub(before.Reads); d != (memo.Stats{}) {
		fmt.Fprintf(os.Stderr, "[%s text reads: %d hits, %d misses, %d evictions]\n", exp, d.Hits, d.Misses, d.Evictions)
	}
}
