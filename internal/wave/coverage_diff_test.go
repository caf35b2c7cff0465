package wave_test

import (
	"math/rand"
	"testing"

	"repro/internal/compiler"
	"repro/internal/dataset"
	"repro/internal/fixer"
	"repro/internal/llm"
	"repro/internal/sim"
	"repro/internal/wave"
)

// diffDesign is one design of the coverage differential: a problem's
// reference or a generated candidate for it.
type diffDesign struct {
	p    *dataset.Problem
	name string
	src  string
}

// diffDesigns lists the 314 references and, from a fixed seed, two
// generated candidates for every Human problem.
func diffDesigns() []diffDesign {
	var out []diffDesign
	for _, suite := range []dataset.Suite{dataset.SuiteHuman, dataset.SuiteMachine, dataset.SuiteRTLLM} {
		for _, p := range dataset.Problems(suite) {
			out = append(out, diffDesign{p: p, name: string(suite) + "/" + p.ID, src: p.RefSource})
		}
	}
	rng := rand.New(rand.NewSource(2024))
	for _, p := range dataset.Problems(dataset.SuiteHuman) {
		rates := llm.SkewRates(llm.RatesFor(string(p.Suite), string(p.Difficulty)), p.ID)
		for i := 0; i < 2; i++ {
			code := fixer.Fix(llm.Generate(p.RefSource, rates, rng).Code).Code
			out = append(out, diffDesign{p: p, name: "generated/" + p.ID, src: code})
		}
	}
	return out
}

// observedRun drives s with vectors (inputs in header order, the clock
// pulsed when the problem has one) with flat, ref and rec attached,
// stopping at the first runtime error, and folds the activation counts
// into both coverages.
func observedRun(s *sim.Simulator, p *dataset.Problem, vectors []sim.Vector, flat *wave.Coverage, ref *wave.RefCoverage, rec *wave.Recorder) {
	s.Observe(wave.Multi(flat, ref, rec))
	s.EnableActivations()
	defer func() {
		flat.AddActivations(s.Activations())
		ref.AddActivations(s.Activations())
	}()
	inputs := s.Design().Inputs()
	for _, vec := range vectors {
		for _, in := range inputs {
			if v, ok := vec.Inputs[in.Name]; ok && in.Name != p.Clock {
				if s.SetInput(in.Name, v) != nil {
					return
				}
			}
		}
		if s.Settle() != nil {
			return
		}
		if p.Clock != "" && s.ClockPulse(p.Clock) != nil {
			return
		}
	}
}

// TestCoverageMatchesPerSignalReference holds the flat-plane Coverage to
// the per-signal RefCoverage over every reference and the generated
// candidates, on both backends: equal Stats and equal Signature after
// the same samples. A recorder rides along, and the engine's waveform
// (slot-ordered signal table) must equal the walker's (sorted at run
// time) sample for sample.
func TestCoverageMatchesPerSignalReference(t *testing.T) {
	designs, runs := 0, 0
	for _, d := range diffDesigns() {
		_, design, _ := compiler.Frontend(d.src)
		if design == nil {
			continue
		}
		prog, err := sim.Compile(design)
		if err != nil {
			continue
		}
		vectors, err := d.p.Vectors(rand.New(rand.NewSource(int64(designs) + 1)))
		if err != nil {
			t.Fatalf("%s: vectors: %v", d.name, err)
		}
		designs++
		var vcds [2]string
		for i, eng := range []sim.Engine{sim.EngineCompiled, sim.EngineWalker} {
			s := sim.NewFromProgram(prog)
			if eng == sim.EngineWalker {
				if s, err = sim.NewWith(design, eng); err != nil {
					t.Fatal(err)
				}
			}
			flat, ref, rec := wave.NewCoverage(), &wave.RefCoverage{}, wave.NewRecorder(0)
			observedRun(s, d.p, vectors, flat, ref, rec)
			runs++
			if got, want := flat.Stats(), ref.Stats(); got != want {
				t.Errorf("%s engine %d: Stats = %+v, reference %+v", d.name, eng, got, want)
			}
			if *flat.Signature() != *ref.Signature() {
				t.Errorf("%s engine %d: Signature differs from the reference", d.name, eng)
			}
			vcds[i] = rec.VCD()
		}
		if vcds[0] != vcds[1] {
			t.Errorf("%s: engine and walker waveforms differ", d.name)
		}
	}
	if designs < 314 {
		t.Fatalf("only %d designs simulated, want the 314 references and more", designs)
	}
	t.Logf("%d designs, %d observed runs", designs, runs)
}

// TestDiffSourceObservedAgrees: DiffSource, with a recorder and a
// coverage attached to its engine through the slot-ordered signal table,
// finds no divergence on any reference, and its recorder sees every
// signal of the design.
func TestDiffSourceObservedAgrees(t *testing.T) {
	for _, suite := range []dataset.Suite{dataset.SuiteHuman, dataset.SuiteMachine, dataset.SuiteRTLLM} {
		for i, p := range dataset.Problems(suite) {
			rec, cov := wave.NewRecorder(0), wave.NewCoverage()
			rep, err := sim.DiffSource(p.RefSource, sim.DiffConfig{
				Clock: p.Clock, Cycles: 8, Seed: int64(i), Recorder: rec, Coverage: cov,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", suite, p.ID, err)
			}
			if rep.Diverged() {
				t.Errorf("%s/%s: %s", suite, p.ID, rep.First())
			}
			if rec.Samples() == 0 || cov.Stats().Signals != signalCount(t, p.RefSource) {
				t.Errorf("%s/%s: recorder took %d samples over %d signals", suite, p.ID, rec.Samples(), cov.Stats().Signals)
			}
		}
	}
}

func signalCount(t *testing.T, src string) int {
	t.Helper()
	_, design, _ := compiler.Frontend(src)
	if design == nil {
		t.Fatal("reference does not elaborate")
	}
	return len(design.Signals)
}
