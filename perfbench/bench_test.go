package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/metrics"
)

// smallUnits keeps every workload to a few seconds.
var smallUnits = map[string]int{"repair-sweep": 1, "passk-eval": 1, "serve-mix": 1}

// runSmall sets up and runs a workload's timed phase, and verifies it.
func runSmall(t *testing.T, w workload, seed int64) (runner, outcome) {
	t.Helper()
	r, err := w.setup(seed, smallUnits[w.name], nil, &setupTimes{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.close)
	tm := drive(r, w.clients)
	oc := r.verify(tm.bad)
	for i, b := range tm.bad {
		if b {
			t.Fatalf("%s seed %d: operation %d failed; first errors: %v", w.name, seed, i, tm.errs)
		}
	}
	return r, oc
}

// inputDigest hashes what the benchmark generated for a run, plus, for
// passk-eval, the samples' outcomes: its samples come from the seeded
// generation stream inside the operations.
func inputDigest(t *testing.T, r runner) string {
	h := sha256.New()
	switch r := r.(type) {
	case *repairSweepRun:
		for _, p := range r.plan {
			e := r.entries[p.entry]
			fmt.Fprintf(h, "%d|%d|%s|%d\n", p.sweep, p.config, e.Code, sampleSeed(e, p.repeat))
		}
		fmt.Fprintf(h, "model seed %d\n", r.seed)
	case *passkRun:
		for i, o := range r.out {
			pass, g := r.sample(i)
			fmt.Fprintf(h, "%d|%s|%v|%v|%v|%s\n", pass.seed, r.problems[g].problem.ID, o.fixAttempted, o.fixed, o.passed, o.code)
		}
	case *serveMixRun:
		for i := range r.resp {
			entry, fix := r.request(i)
			fmt.Fprintf(h, "%v|%s\n", fix, r.bodies[entry])
		}
	default:
		t.Fatalf("no digest for %T", r)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestSeedDeterminesInputsAndScores(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, ocA := runSmall(t, w, 1)
			b, ocB := runSmall(t, w, 1)
			c, _ := runSmall(t, w, 2)
			if inputDigest(t, a) != inputDigest(t, b) {
				t.Error("the same seed generated different inputs")
			}
			if ocA != ocB {
				t.Errorf("the same seed scored differently: %+v vs %+v", ocA, ocB)
			}
			if inputDigest(t, a) == inputDigest(t, c) {
				t.Error("seeds 1 and 2 generated the same inputs")
			}
			if ocA.fixRate <= 0 || ocA.passAt1 <= 0 {
				t.Errorf("scores must never be 0: %+v", ocA)
			}
		})
	}
}

func TestRepairSweepMatchesTable1(t *testing.T) {
	const seed = 7
	r, _ := runSmall(t, repairSweep, seed)
	rs := r.(*repairSweepRun)
	tab := bench.RunTable1(bench.Table1Config{
		Seed:    seed,
		Repeats: sweepRepeats * smallUnits[repairSweep.name],
		Entries: rs.entries,
		Workers: 1,
		Cache:   true,
	})
	for c, rate := range rs.fixRates() {
		cfg := rs.configs[c]
		comp, ok := compiler.ByName(cfg.compiler)
		if !ok {
			t.Fatalf("unknown compiler %q", cfg.compiler)
		}
		cell, ok := tab.Cell(cfg.mode, cfg.rag, comp.Name(), cfg.persona)
		if !ok || !cell.Defined() {
			t.Fatalf("Table 1 has no defined cell for %+v", cfg)
		}
		if math.Abs(cell.FixRate-rate) > 1e-12 {
			t.Errorf("%+v: sweep fix rate %.6f, Table 1 %.6f", cfg, rate, cell.FixRate)
		}
	}
	if got, want := len(rs.configs), 14; got != want {
		t.Errorf("%d configurations, Table 1 defines %d", got, want)
	}
}

func TestPasskEvalMatchesTable2(t *testing.T) {
	const seed = 7
	r, _ := runSmall(t, passkEval, seed)
	pr := r.(*passkRun)
	if len(pr.passes) != 1 {
		t.Fatalf("%d passes, want 1", len(pr.passes))
	}
	tab := bench.RunTable2(bench.Table2Config{
		Seed:    passSeed(seed, 0),
		SampleN: passkSamples,
		Suites:  passkSuites,
		Workers: 1,
		Cache:   true,
	})
	for si, suite := range passkSuites {
		var ns, cs []int
		for g, p := range pr.problems {
			if p.suite != si {
				continue
			}
			ns = append(ns, passkSamples)
			c := 0
			for _, o := range pr.out[g*passkSamples : (g+1)*passkSamples] {
				if o.passed {
					c++
				}
			}
			cs = append(cs, c)
		}
		got, _ := metrics.MeanPassAtK(ns, cs, 1)
		row, ok := tab.Row(suite, "All")
		if !ok {
			t.Fatalf("Table 2 has no %s row", suite)
		}
		if math.Abs(row.Fixed1-got) > 1e-12 {
			t.Errorf("%s: passk-eval pass@1 after fixing %.6f, Table 2 %.6f", suite, got, row.Fixed1)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the runs must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestRunsReportEveryDeclaredMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := workloadByName(sw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", sw.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			o := options{workload: w.name, seed: 3, seconds: 1}
			res, _, err := untracedRun(w, o)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, spec.EndToEnd)
			inProcess := func(o options) (runtimeLine, bool, error) {
				r, rt, err := untracedRun(w, o)
				if err != nil {
					return rt, false, err
				}
				return rt, r.Correct, nil
			}
			res, err = tracedRun(w, o, inProcess)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, spec.PerLayer)
			if u := res.Metrics["ledger.unattributed_ms_per_op"].Value; math.Abs(u) > 0.25*res.Metrics["ledger.op_ms"].Value {
				t.Errorf("a quarter or more of each operation is unattributed: %.4f ms", u)
			}
		})
	}
}

func checkResult(t *testing.T, res *result, want []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("run not clean: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s not reported", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, declared %q", m.Name, got.Unit, m.Unit)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("metric %s = %v", m.Name, got.Value)
		}
	}
}

func TestSelfTimesCountOverlapOnce(t *testing.T) {
	// A server fix request: admission, then wait; the run (on another
	// goroutine) overlaps the wait, and the agent runs inside the run.
	nodes := []node{
		{kind: "fix", layer: "server", start: 0, end: 10, depth: 0},
		{kind: "admission", layer: "server", start: 0, end: 1, depth: 1},
		{kind: "queue", layer: "server", start: 0.5, end: 3, depth: 1},
		{kind: "wait", layer: "server", start: 1, end: 9, depth: 1},
		{kind: "run", layer: "pipeline", start: 3, end: 8, depth: 1},
		{kind: "agent", layer: "agent", start: 3.5, end: 7, depth: 2},
	}
	self := selfTimes(nodes)
	want := []float64{1, 0.5, 0.5, 3, 1.5, 3.5}
	total := 0.0
	for i := range nodes {
		total += self[i]
		if math.Abs(self[i]-want[i]) > 1e-9 {
			t.Errorf("%s: self %.3f, want %.3f", nodes[i].kind, self[i], want[i])
		}
	}
	if total != 10 {
		t.Errorf("self times sum to %.3f, the request took 10", total)
	}
}

func TestBadInvocationsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "passk-eval", "--trace", "2"},
		{"--workload", "passk-eval", "--seconds", "0"},
	} {
		if code := run(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("%q exited 0", args)
		}
	}
}

// TestWindowsDoTheSameWork checks that every window of a run issues the
// same multiset of requests (serve-mix), configurations (repair-sweep)
// or problems (passk-eval), so the median over windows compares like
// with like.
func TestWindowsDoTheSameWork(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := w.setup(1, 2, nil, &setupTimes{})
			if err != nil {
				t.Fatal(err)
			}
			defer r.close()
			win := r.window()
			if win < 1 || r.ops()%win != 0 || r.ops()/win < 2 {
				t.Fatalf("%d operations, windows of %d", r.ops(), win)
			}
			var first map[string]int
			for a := 0; a < r.ops(); a += win {
				mix := map[string]int{}
				for i := a; i < a+win; i++ {
					switch r := r.(type) {
					case *repairSweepRun:
						mix[fmt.Sprint(r.plan[i].config)]++
					case *serveMixRun:
						entry, fix := r.request(i)
						mix[fmt.Sprint(entry, fix)]++
					case *passkRun:
						_, g := r.sample(i)
						mix[fmt.Sprint(g)]++
					}
				}
				if first == nil {
					first = mix
				} else if !reflect.DeepEqual(mix, first) {
					t.Fatalf("window at operation %d does different work from the first", a)
				}
			}
			if rs, ok := r.(*repairSweepRun); ok && len(first) != len(rs.configs) {
				t.Errorf("a window holds %d of %d configurations", len(first), len(rs.configs))
			}
		})
	}
}

func TestWindowedMedianPassesOverSlowWindows(t *testing.T) {
	t0 := time.Unix(0, 0)
	tm := timed{lat: make([]time.Duration, 10)}
	for i := range tm.lat {
		tm.lat[i] = time.Millisecond
	}
	// Window 1 lost 20 ms to steal, window 4 ran slow without steal.
	tm.lat[2], tm.lat[3] = 10*time.Millisecond, 10*time.Millisecond
	tm.lat[8], tm.lat[9] = 10*time.Millisecond, 10*time.Millisecond
	ends := []time.Duration{0, 2, 22, 24, 26, 46}
	steal := []time.Duration{0, 0, 20, 20, 20, 20}
	for i, d := range ends {
		tm.marks = append(tm.marks, mark{t0.Add(d * time.Millisecond), d * time.Millisecond, steal[i] * time.Millisecond})
	}
	got := tm.windowed()
	want := windowTimes{throughput: 1000, p50: 1, p90: 1, cpuPerOp: 1, windows: 5, quiet: 4}
	if got != want {
		t.Errorf("windowed = %+v, want %+v", got, want)
	}
}
