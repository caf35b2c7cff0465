package server

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/agent"
	"repro/internal/compiler"
	"repro/internal/dataset"
	"repro/internal/sim"
)

// TestSimCheckAllocs pins the cost of setting up an observed smoke check:
// with tracing off and the program already cached, one check over a
// Human reference averages at most 20 allocations. Instance state comes
// out of one word arena, the coverage planes out of another, the signal
// table comes from the program, and a nil span is handed no attribute.
func TestSimCheckAllocs(t *testing.T) {
	s := New(Config{Seed: 1})
	defer s.Close()
	probs := dataset.Problems(dataset.SuiteHuman)
	if len(probs) != 156 {
		t.Fatalf("%d Human problems, want 156", len(probs))
	}
	trs := make([]*agent.Transcript, len(probs))
	for i, p := range probs {
		trs[i] = &agent.Transcript{Success: true, FinalCode: p.RefSource}
		if got := s.runSimCheck(trs[i], nil); got != "ok" {
			t.Fatalf("%s: sim check = %q, want ok", p.ID, got)
		}
	}
	var total float64
	for _, tr := range trs {
		total += testing.AllocsPerRun(20, func() { s.simCheck(tr, nil) })
	}
	mean := total / float64(len(trs))
	t.Logf("%.1f allocations per sim check (mean over %d references)", mean, len(trs))
	if mean > 20 {
		t.Fatalf("sim check allocates %.1f times on average, want at most 20", mean)
	}
}

// FuzzSimCompile feeds arbitrary source through the smoke check's path:
// compiler.Frontend, sim.Compile, and smokeRun (NewFromProgram, Settle
// and one ClockPulse under the check's watchdog, with coverage and the
// engine profile attached and folded). Nothing on that path may panic,
// whatever the frontend lets through. Seeds: every testdata/hostile
// input and every 20th Human reference.
func FuzzSimCompile(f *testing.F) {
	hostile, err := filepath.Glob("../../testdata/hostile/*.v")
	if err != nil || len(hostile) == 0 {
		f.Fatalf("no hostile seeds: %v", err)
	}
	for _, path := range hostile {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for i, p := range dataset.Problems(dataset.SuiteHuman) {
		if i%20 == 0 {
			f.Add(p.RefSource)
		}
	}
	obs := newSimObs()
	f.Fuzz(func(t *testing.T, src string) {
		_, design, _ := compiler.Frontend(src)
		if design == nil {
			return
		}
		prog, err := sim.Compile(design)
		if err != nil {
			return
		}
		smokeRun(prog, nil, obs)
	})
}
