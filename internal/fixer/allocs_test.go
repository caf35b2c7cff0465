package fixer_test

import (
	"testing"

	"repro/internal/curate"
	"repro/internal/dataset"
	"repro/internal/fixer"
)

// TestFixAllocs: fixer.Fix allocates nothing on a source no rule
// changes: every dataset reference, and the pre-fixed form of every
// curated entry (a quarter of which start with a `timescale directive).
// The agent pre-fixes every candidate uncached, so a source the rules
// leave alone costs only the scans.
func TestFixAllocs(t *testing.T) {
	entries, _ := curate.Build(curate.Options{Seed: 2024})
	for _, e := range entries {
		src := fixer.Fix(e.Code).Code
		if res := fixer.Fix(src); len(res.Applied) != 0 {
			continue // not a fixed point: a rule changes it again
		}
		if a := testing.AllocsPerRun(20, func() { fixer.Fix(src) }); a != 0 {
			t.Errorf("%s (seed %d): Fix allocates %v times per call on its pre-fixed form, want 0", e.ProblemID, e.SampleSeed, a)
		}
	}
	n := 0
	for _, s := range []dataset.Suite{dataset.SuiteMachine, dataset.SuiteHuman, dataset.SuiteRTLLM} {
		for _, p := range dataset.Problems(s) {
			n++
			if res := fixer.Fix(p.RefSource); len(res.Applied) != 0 || res.Code != p.RefSource {
				t.Fatalf("%s: rules %v changed a reference", p.ID, res.Applied)
			}
			if a := testing.AllocsPerRun(20, func() { fixer.Fix(p.RefSource) }); a != 0 {
				t.Errorf("%s: Fix allocates %v times per call, want 0", p.ID, a)
			}
		}
	}
	if n != 314 {
		t.Fatalf("%d references, want 314", n)
	}
}
