// Command perfbench is the repository's benchmark: one process runs one
// workload through the system's public API, checks every output, and
// prints its end-to-end metrics (--trace 0) or its per-layer ledger
// (--trace 1). The last line of standard output is the JSON result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the checkout root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload passk-eval --seed 3 --seconds 30 --trace 0
//
// README.md beside this file explains the workloads and the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, ok := workloadByName(opts.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", opts.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	fmt.Fprintf(stdout, "host %s\n", mustJSON(hostStamp()))
	var res *result
	if opts.trace {
		res, err = tracedRun(w, opts, untracedChild)
	} else {
		var rt runtimeLine
		res, rt, err = untracedRun(w, opts)
		if err == nil {
			fmt.Fprintf(stdout, "runtime %s\n", mustJSON(rt))
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.print(stdout)
	return 0
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	var o options
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.IntVar(&o.seconds, "seconds", 10, "intended length of the timed phase; sets the amount of work")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer ledger from a traced run")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.workload == "" {
		return o, errors.New("--workload is required")
	}
	if o.seconds < 1 || o.seconds > 60 {
		return o, fmt.Errorf("--seconds %d out of range [1, 60]", o.seconds)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, not %d", traceFlag)
	}
	o.trace = traceFlag == 1
	return o, nil
}

// metric is one named, unit-carrying value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, value float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// print writes one human-readable line per metric, then the JSON result
// as the last line.
func (r *result) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "metric %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "ops attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	fmt.Fprintln(w, mustJSON(r))
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and finite floats are marshaled
	}
	return string(b)
}
