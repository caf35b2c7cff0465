package dataset

// Differential tests: the compiled simulation engine against the legacy
// tree-walker over the entire curated corpus, under seeded random
// stimulus. These are the acceptance gate for the engine — every output
// of every problem must be bit-identical on both backends, cycle by
// cycle, including testbench mismatch accounting, so every benchmark
// table stays byte-identical with the engine on.

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/fixer"
	"repro/internal/llm"
	"repro/internal/sema"
	"repro/internal/sim"
)

// lockstep drives the same vectors through both simulators and compares
// every output port after every cycle. It returns an error describing the
// first divergence.
func lockstep(p *Problem, eng, wlk *sim.Simulator, vectors []sim.Vector) error {
	outputs := eng.Design().Outputs()
	for cyc, vec := range vectors {
		for _, s := range []*sim.Simulator{eng, wlk} {
			for name, v := range vec.Inputs {
				if name == p.Clock {
					continue
				}
				if err := s.SetInput(name, v); err != nil {
					return fmt.Errorf("cycle %d: SetInput(%s): %v", cyc, name, err)
				}
			}
		}
		errE, errW := eng.Settle(), wlk.Settle()
		if (errE == nil) != (errW == nil) {
			return fmt.Errorf("cycle %d: settle disagreement: engine=%v walker=%v", cyc, errE, errW)
		}
		if errE != nil {
			return nil // both faulted identically; nothing further to compare
		}
		if p.Clock != "" {
			errE, errW = eng.ClockPulse(p.Clock), wlk.ClockPulse(p.Clock)
			if (errE == nil) != (errW == nil) {
				return fmt.Errorf("cycle %d: clock disagreement: engine=%v walker=%v", cyc, errE, errW)
			}
			if errE != nil {
				return nil
			}
		}
		for _, o := range outputs {
			ev, wv := eng.Get(o.Name), wlk.Get(o.Name)
			if ev.Width() != wv.Width() || !ev.Eq(wv) {
				return fmt.Errorf("cycle %d: output %s: engine=%s walker=%s", cyc, o.Name, ev.Hex(), wv.Hex())
			}
		}
	}
	// Final full-state sweep: internal signals must agree too, not just
	// ports — a stale internal register would poison later cycles.
	for name := range eng.Design().Signals {
		ev, wv := eng.Get(name), wlk.Get(name)
		if !ev.Eq(wv) {
			return fmt.Errorf("final state: signal %s: engine=%s walker=%s", name, ev.Hex(), wv.Hex())
		}
	}
	return nil
}

// TestDifferentialCorpus drives every curated problem on both backends
// with two independent stimulus seeds.
func TestDifferentialCorpus(t *testing.T) {
	fallbacks := 0
	total := 0
	for _, suite := range []Suite{SuiteHuman, SuiteMachine, SuiteRTLLM} {
		for _, p := range Problems(suite) {
			total++
			_, design, diags := compiler.Frontend(p.RefSource)
			if design == nil {
				t.Fatalf("%s/%s: reference does not compile: %s", suite, p.ID, diags.Summary())
			}
			prog, err := sim.Compile(design)
			if err != nil {
				fallbacks++
				t.Logf("%s/%s: engine fallback: %v", suite, p.ID, err)
				continue
			}
			for _, seed := range []int64{1, 99} {
				vectors, err := p.Vectors(rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatalf("%s/%s: vectors: %v", suite, p.ID, err)
				}
				eng := sim.NewFromProgram(prog)
				wlk, err := sim.NewWith(design, sim.EngineWalker)
				if err != nil {
					t.Fatalf("%s/%s: walker: %v", suite, p.ID, err)
				}
				if !wlk.Compiled() && eng.Compiled() {
					// sanity: the two handles really are different backends
				} else if wlk.Compiled() {
					t.Fatalf("%s/%s: walker handle reports compiled", suite, p.ID)
				}
				if err := lockstep(p, eng, wlk, vectors); err != nil {
					t.Errorf("%s/%s seed %d: %v", suite, p.ID, seed, err)
				}
				// the same pair through the scoring harness: the
				// reference on the walker against the oracle, the
				// reference on the engine
				res, err := sim.RunTestbenchSim(wlk, p.Clock, vectors, p.NewGolden())
				if err != nil || !res.Passed() || res.Cycles != len(vectors) {
					t.Errorf("%s/%s seed %d: walker reference vs oracle: %+v, %v", suite, p.ID, seed, res, err)
				}
			}
		}
	}
	// The corpus is the engine's reason to exist: silent mass fallback
	// would void the perf claim while this test kept passing vacuously.
	if fallbacks > 0 {
		t.Errorf("%d/%d corpus designs fell back to the walker; the compiled engine must cover the corpus", fallbacks, total)
	}
}

// TestDifferentialTestbenchAccounting compares full testbench results —
// cycle counts, mismatch counts, and the formatted first-mismatch
// position — between backends. Each problem scores its reference, which
// must pass, and its inverted reference (every output complemented),
// which the oracle must reject on every output of every cycle, so the
// mismatch path is exercised on all of them.
func TestDifferentialTestbenchAccounting(t *testing.T) {
	checked := 0
	for _, suite := range []Suite{SuiteHuman, SuiteRTLLM} {
		for _, p := range Problems(suite) {
			_, design, _ := compiler.Frontend(p.RefSource)
			if design == nil {
				t.Fatalf("%s/%s: reference does not compile", suite, p.ID)
			}
			vectors, err := p.Vectors(rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatalf("%s/%s: vectors: %v", suite, p.ID, err)
			}
			inverted := invertedReference(p, design)
			for _, src := range []string{p.RefSource, inverted} {
				_, cand, diags := compiler.Frontend(src)
				if cand == nil {
					t.Fatalf("%s/%s: does not compile: %s\n%s", suite, p.ID, diags.Summary(), src)
				}
				prog, err := sim.Compile(cand)
				if err != nil {
					t.Fatalf("%s/%s: engine rejects: %v", suite, p.ID, err)
				}
				wlk, err := sim.NewWith(cand, sim.EngineWalker)
				if err != nil {
					t.Fatal(err)
				}
				re, errE := sim.RunTestbenchSim(sim.NewFromProgram(prog), p.Clock, vectors, p.NewGolden())
				rw, errW := sim.RunTestbenchSim(wlk, p.Clock, vectors, p.NewGolden())
				if errE != nil || errW != nil {
					t.Fatalf("%s/%s: testbench error: %v vs %v", suite, p.ID, errE, errW)
				}
				if re != rw {
					t.Errorf("%s/%s: testbench result diverged:\n  engine: %+v\n  walker: %+v", suite, p.ID, re, rw)
				}
				want := 0
				if src == inverted {
					want = len(vectors) * len(design.Outputs())
				}
				if re.Cycles != len(vectors) || re.Mismatches != want {
					t.Errorf("%s/%s: %d mismatches over %d cycles, want %d over %d",
						suite, p.ID, re.Mismatches, re.Cycles, want, len(vectors))
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no problems checked")
	}
}

// invertedReference rewrites p's reference so that every output port
// carries the complement of the reference's value: each output x is
// renamed x_ref below the port list and driven by assign x = ~x_ref.
func invertedReference(p *Problem, design *sema.Design) string {
	end := strings.Index(p.RefSource, "\n);") + len("\n);")
	header := strings.ReplaceAll(p.RefSource[:end], "output reg", "output")
	body := p.RefSource[end:]
	var decls strings.Builder
	for _, o := range design.Outputs() {
		body = regexp.MustCompile(`\b`+o.Name+`\b`).ReplaceAllString(body, o.Name+"_ref")
		kind := "wire"
		if o.Kind.IsVariable() {
			kind = "reg"
		}
		fmt.Fprintf(&decls, "\n\t%s [%d:%d] %s_ref;\n\tassign %s = ~%s_ref;", kind, o.MSB, o.LSB, o.Name, o.Name, o.Name)
	}
	return header + decls.String() + body
}

// generatedCandidate is one LLM-style corrupted sample run through the
// rule-based pre-fixer: what the oracle actually scores in production.
type generatedCandidate struct {
	p          *Problem
	pi, sample int
	code       string
}

// vecSeed is the stimulus seed the candidate is scored with.
func (c generatedCandidate) vecSeed() int64 { return int64(c.pi*31 + c.sample) }

// generatedCandidates draws 4 samples of every 7th Human problem from one
// seed-2024 stream, compiling or not.
func generatedCandidates() []generatedCandidate {
	rng := rand.New(rand.NewSource(2024))
	problems := Problems(SuiteHuman)
	var out []generatedCandidate
	for pi := 0; pi < len(problems); pi += 7 {
		p := problems[pi]
		rates := llm.SkewRates(llm.RatesFor(string(p.Suite), string(p.Difficulty)), p.ID)
		for sample := 0; sample < 4; sample++ {
			code := fixer.Fix(llm.Generate(p.RefSource, rates, rng).Code).Code
			out = append(out, generatedCandidate{p: p, pi: pi, sample: sample, code: code})
		}
	}
	return out
}

// TestDifferentialGeneratedCandidates fuzzes the backends with the
// generated candidates. Every candidate that elaborates and compiles must
// behave identically on both backends.
func TestDifferentialGeneratedCandidates(t *testing.T) {
	simulated, compared := 0, 0
	for _, c := range generatedCandidates() {
		p, sample := c.p, c.sample
		_, design, _ := compiler.Frontend(c.code)
		if design == nil {
			continue // compile errors never reach the simulator
		}
		simulated++
		prog, err := sim.Compile(design)
		if err != nil {
			continue // fallback candidates run the walker on both sides
		}
		vectors, err := p.Vectors(rand.New(rand.NewSource(c.vecSeed())))
		if err != nil {
			t.Fatal(err)
		}
		wlk, err := sim.NewWith(design, sim.EngineWalker)
		if err != nil {
			t.Fatal(err)
		}
		re, errE := sim.RunTestbenchSim(sim.NewFromProgram(prog), p.Clock, vectors, p.NewGolden())
		rw, errW := sim.RunTestbenchSim(wlk, p.Clock, vectors, p.NewGolden())
		if (errE == nil) != (errW == nil) {
			t.Fatalf("%s sample %d: error disagreement: %v vs %v", p.ID, sample, errE, errW)
		}
		if re != rw {
			t.Errorf("%s sample %d: verdict diverged:\n  engine: %+v\n  walker: %+v", p.ID, sample, re, rw)
		}
		compared++
	}
	if compared < 10 {
		t.Fatalf("only %d/%d candidates compared; fuzz corpus too thin", compared, simulated)
	}
	t.Logf("compared %d compiled candidates (%d simulated)", compared, simulated)
}
