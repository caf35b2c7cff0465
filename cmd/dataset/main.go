// Command dataset inspects the benchmark corpora and runs the
// VerilogEval-syntax curation pipeline (§3.4: sampling → filtering →
// DBSCAN clustering → representative selection).
//
// Usage:
//
//	dataset -stats                 # suite sizes and difficulty splits
//	dataset -curate                # build VerilogEval-syntax, print stats
//	dataset -curate -dump DIR      # also write the .v files to DIR
//	dataset -curate -verify        # sanity-check the curated set (parallel)
//	dataset -show PROBLEM_ID       # print one problem's prompt + reference
//
// -verify recompiles every curated entry (each must still fail) and runs
// the full RTLFixer configuration over the set through the
// internal/pipeline worker pool (-workers), reporting the fix rate the
// reference agent achieves on it.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/curate"
	"repro/internal/dataset"
	"repro/internal/pipeline"
)

func main() {
	stats := flag.Bool("stats", false, "print suite statistics")
	doCurate := flag.Bool("curate", false, "run the VerilogEval-syntax curation pipeline")
	dump := flag.String("dump", "", "directory to write curated .v files into")
	verify := flag.Bool("verify", false, "sanity-check the curated set with the reference agent")
	workers := flag.Int("workers", runtime.NumCPU(), "parallel agent runs for -verify")
	show := flag.String("show", "", "print one problem (by ID, searched across suites)")
	seed := flag.Int64("seed", 2024, "random seed")
	flag.Parse()

	if *verify {
		*doCurate = true // -verify needs the curated set
	}
	if !*stats && !*doCurate && *show == "" {
		*stats = true
	}

	if *stats {
		fmt.Println("Benchmark suites:")
		for _, s := range []dataset.Suite{dataset.SuiteHuman, dataset.SuiteMachine, dataset.SuiteRTLLM} {
			st := dataset.SuiteStats(s)
			fmt.Printf("  %-8s %3d problems (%d easy, %d hard)\n", s, st.Total, st.Easy, st.Hard)
		}
	}

	if *show != "" {
		for _, s := range []dataset.Suite{dataset.SuiteHuman, dataset.SuiteMachine, dataset.SuiteRTLLM} {
			if p, ok := dataset.ByID(s, *show); ok {
				fmt.Printf("Problem %s (%s, %s)\n\nDescription:\n  %s\n\nReference:\n%s\n",
					p.ID, p.Suite, p.Difficulty, p.Description, p.RefSource)
				return
			}
		}
		fmt.Fprintf(os.Stderr, "dataset: problem %q not found\n", *show)
		os.Exit(1)
	}

	if *doCurate {
		entries, st := curate.Build(curate.Options{Seed: *seed})
		fmt.Println("VerilogEval-syntax curation:")
		fmt.Printf("  sampled %d, compile-failing %d, filtered %d, clusters %d, final %d\n",
			st.Sampled, st.CompileFailing, st.Filtered, st.Clusters, st.Final)
		byMutator := map[string]int{}
		for _, e := range entries {
			for _, m := range e.Mutations {
				byMutator[m.Mutator]++
			}
		}
		fmt.Println("  error classes in the final set:")
		for name, n := range byMutator {
			fmt.Printf("    %-22s %d\n", name, n)
		}
		if *verify {
			// Every curated entry must still fail compilation (cheap,
			// sequential), and the reference configuration must be able
			// to fix a healthy share of them (expensive: through the
			// worker pool).
			stillFailing := 0
			for _, e := range entries {
				if _, design, _ := compiler.Frontend(e.Code); design == nil {
					stillFailing++
				}
			}
			fmt.Printf("  verify: %d/%d entries fail compilation as curated\n", stillFailing, len(entries))
			if stillFailing != len(entries) {
				fmt.Fprintln(os.Stderr, "dataset: curated entries that no longer fail compilation")
				os.Exit(1)
			}

			fixer, err := core.New(core.Options{
				CompilerName: "quartus", RAG: true, Mode: core.ModeReAct, Seed: *seed})
			if err != nil {
				fmt.Fprintf(os.Stderr, "dataset: %v\n", err)
				os.Exit(1)
			}
			jobs := make([]pipeline.Job, len(entries))
			for i, e := range entries {
				jobs[i] = pipeline.Job{Group: i, Filename: "main.v", Code: e.Code, SampleSeed: e.SampleSeed}
			}
			start := time.Now()
			results, _ := pipeline.Run(context.Background(), pipeline.Config{Workers: *workers}, jobs,
				pipeline.FixWith(fixer))
			sum := pipeline.Summarize(results)
			fmt.Printf("  verify: reference agent (ReAct+RAG+Quartus) fixes %d/%d (rate %.3f) in %v on %d workers\n",
				sum.Succeeded, sum.Jobs, sum.FixRate, time.Since(start).Round(time.Millisecond), *workers)
		}
		if *dump != "" {
			if err := os.MkdirAll(*dump, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "dataset: %v\n", err)
				os.Exit(1)
			}
			for i, e := range entries {
				name := filepath.Join(*dump, fmt.Sprintf("%03d_%s.v", i, e.ProblemID))
				if err := os.WriteFile(name, []byte(e.Code), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "dataset: %v\n", err)
					os.Exit(1)
				}
			}
			fmt.Printf("  wrote %d files to %s\n", len(entries), *dump)
		}
	}
}
