package dataset

// Differential and contract tests for the recorded-reference oracle:
// Check replays each candidate against a cached trace of the reference,
// and must say exactly what simulating the candidate beside a fresh
// reference on freshly generated vectors says.

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/memo"
	"repro/internal/sim"
	"repro/internal/verilog"
)

// legacyVectors is the stimulus generator Problem.Vectors used before
// stimuli were drawn as words, kept as a test-only reference: a map per
// cycle, reset-style inputs high for two cycles then pulsed 1 in 16,
// every other input one rng.Uint64 per 64-bit chunk.
func legacyVectors(p *Problem, rng *rand.Rand) ([]sim.Vector, error) {
	_, design, diags := oracle.Frontend(p.RefSource)
	if design == nil {
		return nil, fmt.Errorf("problem %s: reference does not compile: %s", p.ID, diags.Summary())
	}
	n := p.Cycles
	if n == 0 {
		n = 64
	}
	var vectors []sim.Vector
	for c := 0; c < n; c++ {
		v := sim.Vector{Inputs: map[string]bitvec.Vec{}}
		for _, in := range design.Inputs() {
			if in.Name == p.Clock {
				continue
			}
			if isResetName(in.Name) {
				val := uint64(0)
				if c < 2 || rng.Intn(16) == 0 {
					val = 1
				}
				v.Inputs[in.Name] = bitvec.FromUint64(in.Width(), val)
				continue
			}
			r := bitvec.New(in.Width())
			for i := 0; i < in.Width(); i += 64 {
				chunk := rng.Uint64()
				for b := 0; b < 64 && i+b < in.Width(); b++ {
					if chunk>>b&1 == 1 {
						r.SetBitInPlace(i+b, true)
					}
				}
			}
			v.Inputs[in.Name] = r
		}
		vectors = append(vectors, v)
	}
	return vectors, nil
}

// lockstepCheck is the oracle Check used before reference traces, kept
// as a test-only reference: legacy vectors, a fresh reference simulator,
// and both simulators stepped in lockstep, the candidate first in each
// cycle, inputs driven in the reference's header order.
func lockstepCheck(p *Problem, candidate string, rng *rand.Rand) (sim.TBResult, error) {
	var res sim.TBResult
	prog, design, diags := oracle.Program(candidate)
	if design == nil {
		return res, fmt.Errorf("candidate does not compile: %s", diags.Summary())
	}
	if prog == nil {
		return res, fmt.Errorf("candidate does not simulate")
	}
	vectors, err := legacyVectors(p, rng)
	if err != nil {
		return res, err
	}
	s := sim.NewFromProgram(prog)
	ref := p.NewGolden()
	var outNames []string
	for _, o := range ref.Design().Outputs() {
		if sig := s.Design().Signal(o.Name); sig == nil || sig.Dir != verilog.DirOutput {
			return res, fmt.Errorf("candidate has no output port %q", o.Name)
		}
		outNames = append(outNames, o.Name)
	}
	sort.Strings(outNames)
	inputs := ref.Design().Inputs()
	apply := func(s *sim.Simulator, vec sim.Vector) error {
		for _, in := range inputs {
			v, ok := vec.Inputs[in.Name]
			if !ok {
				continue
			}
			if s.Design().Signal(in.Name) == nil {
				return fmt.Errorf("testbench drives unknown input %q", in.Name)
			}
			if err := s.SetInput(in.Name, v); err != nil {
				return err
			}
		}
		if err := s.Settle(); err != nil {
			return err
		}
		if p.Clock != "" {
			return s.ClockPulse(p.Clock)
		}
		return nil
	}
	s.Reset()
	ref.Reset()
	for cyc, vec := range vectors {
		if err := apply(s, vec); err != nil {
			return res, err
		}
		if err := apply(ref, vec); err != nil {
			return res, fmt.Errorf("reference: %w", err)
		}
		res.Cycles++
		for _, name := range outNames {
			got, want := s.Get(name), ref.Get(name)
			if !got.Eq(want) {
				res.Mismatches++
				if res.FirstMismatch == "" {
					res.FirstMismatch = fmt.Sprintf(
						"cycle %d: output %s = %s, expected %s", cyc, name, got.Hex(), want.Resize(got.Width()).Hex())
				}
			}
		}
	}
	return res, nil
}

// withTraceCache runs f with tc as the package's trace cache.
func withTraceCache(tc *memo.TraceCache, f func()) {
	old := traces
	traces = tc
	defer func() { traces = old }()
	f()
}

// TestDifferentialCheckAgainstLockstep scores every reference, every
// inverted reference and every generated candidate on three seeds
// through Check, once on a cold trace cache and once warm, and through
// lockstepCheck: verdict, error and the caller's next random draw must
// agree. Inverted references must fail every output of every cycle.
func TestDifferentialCheckAgainstLockstep(t *testing.T) {
	type cand struct {
		p        *Problem
		code     string
		inverted bool
	}
	var cands []cand
	problems := 0
	for _, suite := range []Suite{SuiteHuman, SuiteMachine, SuiteRTLLM} {
		for _, p := range Problems(suite) {
			_, design, _ := oracle.Frontend(p.RefSource)
			cands = append(cands, cand{p: p, code: p.RefSource}, cand{p: p, code: invertedReference(p, design), inverted: true})
			problems++
		}
	}
	for _, c := range generatedCandidates() {
		cands = append(cands, cand{p: c.p, code: c.code})
	}
	if problems != 314 {
		t.Fatalf("%d problems, want 314", problems)
	}
	compared, failing := 0, 0
	for _, c := range cands {
		for _, seed := range []int64{3, 17, 2024} {
			want, wantErr := lockstepCheck(c.p, c.code, rand.New(rand.NewSource(seed)))
			wantNext := nextDraw(rand.New(rand.NewSource(seed)), func(rng *rand.Rand) { lockstepCheck(c.p, c.code, rng) })
			tc := memo.NewTraceCache(traceCapacity)
			withTraceCache(tc, func() {
				for _, temp := range []string{"cold", "warm"} {
					rng := rand.New(rand.NewSource(seed))
					got, err := c.p.Check(c.code, rng)
					if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
						t.Errorf("%s/%s seed %d %s: Check = %+v, %v; lockstep = %+v, %v",
							c.p.Suite, c.p.ID, seed, temp, got, err, want, wantErr)
					}
					if next := rng.Int63(); next != wantNext {
						t.Errorf("%s/%s seed %d %s: next draw after Check %d, after lockstep %d",
							c.p.Suite, c.p.ID, seed, temp, next, wantNext)
					}
				}
			})
			if st := tc.Stats(); wantErr == nil && (st.Misses != 1 || st.Hits != 1) {
				t.Errorf("%s/%s seed %d: trace cache %+v, want one miss then one hit", c.p.Suite, c.p.ID, seed, st)
			}
			if c.inverted {
				outs := len(c.p.NewGolden().Design().Outputs())
				if wantErr != nil || want.Mismatches != want.Cycles*outs || want.Cycles == 0 {
					t.Errorf("%s/%s: inverted reference not rejected on every output: %+v, %v", c.p.Suite, c.p.ID, want, wantErr)
				}
			}
			compared++
			if wantErr != nil || !want.Passed() {
				failing++
			}
		}
	}
	if compared < 3*(2*314+80) || failing < compared/3 {
		t.Fatalf("compared %d checks, %d failing: corpus too thin", compared, failing)
	}
}

// nextDraw runs f on rng and returns rng's next Int63.
func nextDraw(rng *rand.Rand, f func(*rand.Rand)) int64 {
	f(rng)
	return rng.Int63()
}

// TestCheckAdvancesRNGLikeVectors: a stream shared across several checks
// is left by each Check exactly where Vectors leaves it.
func TestCheckAdvancesRNGLikeVectors(t *testing.T) {
	for _, id := range []string{"adder_w16", "counter_up_w8", "half_adder"} {
		p, ok := ByID(SuiteHuman, id)
		if !ok {
			t.Fatalf("missing problem %s", id)
		}
		a, b := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
		for i := 0; i < 4; i++ {
			if _, err := p.Check(p.RefSource, a); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Vectors(b); err != nil {
				t.Fatal(err)
			}
			if x, y := a.Int63(), b.Int63(); x != y {
				t.Fatalf("%s check %d: next draw after Check %d, after Vectors %d", id, i, x, y)
			}
		}
	}
}

// TestVectorsMatchLegacyGenerator: the word draw yields the vectors the
// map-building generator did, value for value.
func TestVectorsMatchLegacyGenerator(t *testing.T) {
	for _, suite := range []Suite{SuiteHuman, SuiteRTLLM} {
		for _, p := range Problems(suite) {
			got, err := p.Vectors(rand.New(rand.NewSource(11)))
			if err != nil {
				t.Fatal(err)
			}
			want, _ := legacyVectors(p, rand.New(rand.NewSource(11)))
			if len(got) != len(want) {
				t.Fatalf("%s: %d vectors, want %d", p.ID, len(got), len(want))
			}
			for c := range got {
				if len(got[c].Inputs) != len(want[c].Inputs) {
					t.Fatalf("%s cycle %d: drives %d inputs, want %d", p.ID, c, len(got[c].Inputs), len(want[c].Inputs))
				}
				for name, w := range want[c].Inputs {
					if g := got[c].Inputs[name]; g.Width() != w.Width() || !g.Eq(w) {
						t.Fatalf("%s cycle %d input %s: %s, want %s", p.ID, c, name, g.Hex(), w.Hex())
					}
				}
			}
		}
	}
}

// TestCheckMissingInputsErrorIsDeterministic: a candidate lacking
// several reference inputs is always told about the first in header
// order (inputs were once driven in map order, so the error named a
// random one).
func TestCheckMissingInputsErrorIsDeterministic(t *testing.T) {
	p, ok := ByID(SuiteHuman, "adder_w16")
	if !ok {
		t.Fatal("missing problem")
	}
	const cand = `module top_module(output [15:0] sum, output cout);
	assign sum = 16'd0;
	assign cout = 1'b0;
endmodule
`
	errs := map[string]int{}
	for i := 0; i < 50; i++ {
		_, err := p.Check(cand, rand.New(rand.NewSource(int64(i))))
		errs[fmt.Sprint(err)]++
	}
	if want := `testbench drives unknown input "a"`; len(errs) != 1 || errs[want] != 50 {
		t.Fatalf("errors over 50 checks: %v, want only %q", errs, want)
	}
}

// TestCheckWarmTraceAllocs: with the candidate compiled and the trace
// recorded, a Check allocates the stimulus, the candidate's simulator
// and little else, on the compiled engine.
func TestCheckWarmTraceAllocs(t *testing.T) {
	for _, id := range []string{"half_adder", "adder_w16", "counter_up_w8"} {
		p, ok := ByID(SuiteHuman, id)
		if !ok {
			t.Fatalf("missing problem %s", id)
		}
		if prog, _, _ := oracle.Program(p.RefSource); prog == nil {
			t.Fatalf("%s: not on the compiled engine", id)
		}
		rng := rand.New(rand.NewSource(21))
		check := func() {
			rng.Seed(21)
			if res, err := p.Check(p.RefSource, rng); err != nil || !res.Passed() {
				t.Fatalf("%s: %+v, %v", id, res, err)
			}
		}
		check() // compile the candidate, record the trace
		before := memo.TotalsByKind().Trace
		if allocs := testing.AllocsPerRun(20, check); allocs > 32 {
			t.Errorf("%s: warm-trace Check allocates %.0f times, want at most 32", id, allocs)
		}
		if d := memo.TotalsByKind().Trace.Sub(before); d.Misses != 0 {
			t.Errorf("%s: warm checks re-recorded the trace: %+v", id, d)
		}
	}
}

// TestCheckConcurrentTraceRecordedOnce: concurrent checks of one
// (problem, stimulus) record the reference once and agree. Run it under
// the race detector.
func TestCheckConcurrentTraceRecordedOnce(t *testing.T) {
	p, ok := ByID(SuiteHuman, "counter_up_w8")
	if !ok {
		t.Fatal("missing problem")
	}
	const n = 8
	cands := []string{p.RefSource, invertedReference(p, p.NewGolden().Design())}
	tc := memo.NewTraceCache(traceCapacity)
	results := make([]sim.TBResult, n)
	errs := make([]error, n)
	withTraceCache(tc, func() {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = p.Check(cands[i%2], rand.New(rand.NewSource(77)))
			}(i)
		}
		wg.Wait()
	})
	for i := range results {
		want, wantErr := lockstepCheck(p, cands[i%2], rand.New(rand.NewSource(77)))
		if results[i] != want || fmt.Sprint(errs[i]) != fmt.Sprint(wantErr) {
			t.Errorf("check %d: %+v, %v; want %+v, %v", i, results[i], errs[i], want, wantErr)
		}
	}
	if st := tc.Stats(); st.Misses != 1 || st.Hits != n-1 {
		t.Fatalf("trace cache %+v, want 1 miss and %d hits", st, n-1)
	}
}
