// Command rtlfixer runs the RTLFixer debugging agent on a single Verilog
// source file and prints the ReAct transcript (Thought / Action /
// Observation steps, paper Fig. 2c) plus the final code.
//
// Usage:
//
//	rtlfixer [flags] file.v          # fix a file
//	rtlfixer [flags] a.v b.v c.v     # fix a batch (parallel, ordered output)
//	rtlfixer -demo                   # fix the paper's Fig. 5 example
//
// Flags select the compiler persona (simple/iverilog/quartus), the LLM
// persona (gpt-3.5/gpt-4), the prompting mode (react/one-shot), and
// whether the retrieval database is consulted. With several input files
// the agent runs are fanned out over -workers goroutines
// (internal/pipeline); per-file output is printed in argument order, so
// it is identical for any worker count.
//
// Exit status reflects fix outcomes, so scripts and harnesses can detect
// failures: 0 when every input was fixed, 1 when any input could not be
// read, errored, or remained broken after the iteration budget, 2 on
// usage errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/sema"
	"repro/internal/sim"
	"repro/internal/wave"
)

// demoSource is the paper's Fig. 5 erroneous implementation (task
// vector100r): posedge clk with no clk port.
const demoSource = `module top_module (
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

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process exit, so tests can assert on the exit
// code contract directly.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtlfixer", flag.ContinueOnError)
	fs.SetOutput(stderr)
	compilerName := fs.String("compiler", "quartus", "feedback persona: simple, iverilog, or quartus")
	persona := fs.String("persona", "gpt-3.5", "LLM persona: gpt-3.5 or gpt-4")
	mode := fs.String("mode", "react", "prompting mode: react or one-shot")
	ragOn := fs.Bool("rag", true, "consult the retrieval database")
	iters := fs.Int("iters", 0, "max ReAct iterations (0 = paper default of 10)")
	seed := fs.Int64("seed", 1, "random seed")
	demo := fs.Bool("demo", false, "run on the paper's Fig. 5 example")
	quiet := fs.Bool("quiet", false, "print only the final code")
	workers := fs.Int("workers", runtime.NumCPU(), "parallel agent runs when fixing several files")
	timeout := fs.Duration("timeout", 0, "per-file wall-clock budget (0 = none)")
	coverage := fs.Bool("coverage", false, "simulate each fixed design briefly and print its toggle coverage to stderr")
	vcdDir := fs.String("vcd", "", "directory to write a VCD waveform dump of each fixed design's check run")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var sources, names []string
	switch {
	case *demo:
		sources, names = []string{demoSource}, []string{"vector100r.sv"}
	case fs.NArg() >= 1:
		for _, name := range fs.Args() {
			data, err := os.ReadFile(name)
			if err != nil {
				fmt.Fprintf(stderr, "rtlfixer: %v\n", err)
				return 1
			}
			names = append(names, name)
			sources = append(sources, string(data))
		}
	default:
		fmt.Fprintln(stderr, "usage: rtlfixer [flags] file.v ...   (or rtlfixer -demo)")
		fs.PrintDefaults()
		return 2
	}

	m := core.ModeReAct
	if *mode == "one-shot" {
		m = core.ModeOneShot
	}
	fixer, err := core.New(core.Options{
		CompilerName:  *compilerName,
		PersonaName:   *persona,
		RAG:           *ragOn,
		Mode:          m,
		MaxIterations: *iters,
		Seed:          *seed,
	})
	if err != nil {
		fmt.Fprintf(stderr, "rtlfixer: %v\n", err)
		return 1
	}

	jobs := make([]pipeline.Job, len(names))
	for i := range names {
		// Each file gets its own sample seed so a batch behaves like n
		// independent single-file invocations.
		jobs[i] = pipeline.Job{Filename: names[i], Code: sources[i], SampleSeed: *seed + int64(i)}
	}
	results, _ := pipeline.Run(context.Background(),
		pipeline.Config{Workers: *workers, JobTimeout: *timeout}, jobs,
		pipeline.FixWith(fixer))

	failed := false
	for i, r := range results {
		if r.Err != nil {
			fmt.Fprintf(stderr, "rtlfixer: %s: %v\n", names[i], r.Err)
			failed = true
			continue
		}
		tr := r.Transcript
		// In a batch the per-file header prints even under -quiet (else
		// the concatenated final codes are unattributable); the timing is
		// verbose-only so -quiet output stays byte-deterministic.
		if len(results) > 1 {
			if *quiet {
				fmt.Fprintf(stdout, "==> %s\n", names[i])
			} else {
				fmt.Fprintf(stdout, "==> %s (%v)\n", names[i], r.Elapsed.Round(time.Millisecond))
			}
		}
		if !*quiet {
			fmt.Fprintln(stdout, tr.Render())
			fmt.Fprintln(stdout, "Final code:")
		}
		fmt.Fprintln(stdout, tr.FinalCode)
		if !tr.Success {
			fmt.Fprintf(stderr, "rtlfixer: %s: syntax errors remain after the iteration budget\n", names[i])
			failed = true
		}
		// Observability rides on stderr / side files, so stdout stays
		// byte-identical with the flags off.
		if tr.Success && (*coverage || *vcdDir != "") {
			observeFixed(stderr, names[i], tr.FinalCode, *coverage, *vcdDir)
		}
	}
	// Cache counters go to stderr so stdout stays byte-deterministic.
	if s := fixer.CacheStats(); !*quiet {
		fmt.Fprintf(stderr, "rtlfixer: cache: %d hits, %d misses, %d evictions\n", s.Hits, s.Misses, s.Evictions)
	}
	if failed {
		return 1
	}
	return 0
}

// observeFixed runs one fixed design once through the differential
// simulation path with the wave observers on, as vlint -coverage/-vcd
// does: -coverage summarizes toggle coverage to stderr, -vcd writes a
// full waveform dump named after the input. The clock is the design's
// clock input (sim.ClockInput).
func observeFixed(stderr io.Writer, name, code string, wantCov bool, vcdDir string) {
	clock := ""
	if _, design, _ := sema.ParseAndElaborate(code); design != nil {
		clock = sim.ClockInput(design)
	}
	var cov *wave.Coverage
	var rec *wave.Recorder
	if wantCov {
		cov = wave.NewCoverage()
	}
	if vcdDir != "" {
		rec = wave.NewRecorder(0) // unbounded: dump the whole run
	}
	if _, err := sim.DiffSource(code, sim.DiffConfig{
		Clock:    clock,
		Cycles:   8,
		Seed:     1,
		Coverage: cov,
		Recorder: rec,
	}); err != nil {
		fmt.Fprintf(stderr, "rtlfixer: %s: simulation skipped: %v\n", name, err)
		return
	}
	if cov != nil {
		fmt.Fprintf(stderr, "rtlfixer: %s: %s\n", name, cov.Stats())
	}
	if rec == nil {
		return
	}
	if err := os.MkdirAll(vcdDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "rtlfixer: %v\n", err)
		return
	}
	base := strings.TrimSuffix(filepath.Base(name), filepath.Ext(name))
	out := filepath.Join(vcdDir, base+".vcd")
	if err := os.WriteFile(out, []byte(rec.VCD()), 0o644); err != nil {
		fmt.Fprintf(stderr, "rtlfixer: %v\n", err)
	}
}
