// Package dataset holds the benchmark problem corpora standing in for
// VerilogEval-Machine, VerilogEval-Human, and RTLLM. Each problem pairs a
// natural-language description (machine-style low-level or human-style
// high-level, matching the two VerilogEval tracks) with a reference
// Verilog implementation. The reference is the only specification of a
// problem's correct output: as in VerilogEval's harness, the pass@k
// oracle drives a candidate with the reference's stimulus and compares
// every reference output after every cycle. The reference's response to
// a stimulus is recorded once (the trace cache) and replayed against
// every candidate scored under it.
//
// The suite sizes mirror the paper: Human has 156 problems split 71 easy /
// 85 hard (the paper's split at pass-rate 0.1), Machine has 143, and the
// RTLLM-style suite holds larger multi-feature designs.
package dataset

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/memo"
	"repro/internal/sema"
	"repro/internal/sim"
)

// oracle is the package-wide content-addressed cache over the functional
// oracle's compile pipeline (parse + elaborate + engine compile). Every
// consumer of Problem.Check — the bench tables, the examples, rtlfixerd's
// fix loop — funnels through here, so repeated candidates and the
// per-Check reference recompilation are served from cache. The cache is
// transparent: results are byte-identical with or without it.
var oracle = memo.NewSimCache(0)

// traces holds each reference's recorded response per stimulus. Every
// sample of a problem in a Table 2 or perfbench pass shares one stimulus,
// so a pass records each reference once; a trace of an earlier pass
// never hits again, hence room for about two per problem.
var traces = memo.NewTraceCache(traceCapacity)

const traceCapacity = 640

// OracleCacheStats snapshots the package oracle's memoization counters.
func OracleCacheStats() memo.Stats { return oracle.Stats() }

// Suite identifies a benchmark track.
type Suite string

// Benchmark suites.
const (
	SuiteMachine Suite = "machine"
	SuiteHuman   Suite = "human"
	SuiteRTLLM   Suite = "rtllm"
)

// Difficulty is the paper's easy/hard split.
type Difficulty string

// Difficulty levels.
const (
	Easy Difficulty = "easy"
	Hard Difficulty = "hard"
)

// Problem is one benchmark entry.
type Problem struct {
	// ID is unique within a suite (e.g. "vector_reverse_w100").
	ID string
	// Suite is the track the problem belongs to.
	Suite Suite
	// Difficulty is the easy/hard tag driving the generator's pass rates.
	Difficulty Difficulty
	// Description is the prompt text, styled per suite.
	Description string
	// RefSource is the known-good Verilog implementation, and the oracle
	// every candidate is scored against (NewGolden).
	RefSource string
	// Clock names the clock input, or "" for combinational problems.
	Clock string
	// Cycles is the number of testbench vectors to run (0 = 64).
	Cycles int

	// resolved is the reference prepared for checking, on first use.
	resolved struct {
		once sync.Once
		ref  *reference
		err  error
	}
}

// reference is a problem's oracle, resolved on first use: the reference
// design's cached program, the testbench layout over its ports, and the
// identity its traces are cached under.
type reference struct {
	prog   *sim.Program
	design *sema.Design
	layout *sim.Layout
	cycles int
	// reset marks the layout's reset-style inputs (isResetName).
	reset []bool
	key   memo.TraceRef
}

// reference resolves the problem's oracle once. Problems are immutable
// once registered.
func (p *Problem) reference() (*reference, error) {
	p.resolved.once.Do(func() {
		prog, design, diags := oracle.Program(p.RefSource)
		if design == nil {
			p.resolved.err = fmt.Errorf("problem %s: reference does not compile: %s", p.ID, diags.Summary())
			return
		}
		r := &reference{prog: prog, design: design, layout: sim.NewLayout(design, p.Clock), cycles: p.Cycles}
		if r.cycles == 0 {
			r.cycles = 64
		}
		for _, in := range r.layout.Inputs {
			r.reset = append(r.reset, isResetName(in.Name))
		}
		r.key = memo.NewTraceRef(fmt.Sprintf("%s\n%d\n%s", p.Clock, r.cycles, p.RefSource))
		p.resolved.ref = r
	})
	return p.resolved.ref, p.resolved.err
}

// stimulus draws the problem's input rows from rng: random values on
// every non-clock input, with reset-style inputs held high for the first
// two cycles so reference and candidate leave reset together. Values are
// drawn input by input in header order, cycle by cycle: one rng.Intn(16)
// per reset from cycle 2 on, one rng.Uint64 per 64-bit chunk of any
// other input, masked to its width.
func (r *reference) stimulus(rng *rand.Rand) []uint64 {
	l := r.layout
	in := make([]uint64, r.cycles*l.InWords)
	for c := 0; c < r.cycles; c++ {
		row := in[c*l.InWords : (c+1)*l.InWords]
		for i, port := range l.Inputs {
			words := port.Words(row)
			if r.reset[i] {
				// occasional mid-run reset pulses exercise the reset
				// path beyond the preamble
				if c < 2 || rng.Intn(16) == 0 {
					words[0] = 1
				}
				continue
			}
			for k := range words {
				words[k] = rng.Uint64()
			}
			if rem := port.Width % 64; rem != 0 {
				words[len(words)-1] &= 1<<rem - 1
			}
		}
	}
	return in
}

// newGolden instantiates the reference design.
func (r *reference) newGolden() *sim.Simulator {
	s, _ := instantiate(r.prog, r.design) // nil fails the recording, which says so
	return s
}

// Vectors generates the problem's stimulus as testbench vectors: the
// values Check drives, drawn from rng in the same order.
func (p *Problem) Vectors(rng *rand.Rand) ([]sim.Vector, error) {
	r, err := p.reference()
	if err != nil {
		return nil, err
	}
	return r.layout.Vectors(r.stimulus(rng), r.cycles), nil
}

func isResetName(name string) bool {
	switch name {
	case "rst", "reset", "areset", "rst_n", "resetn":
		return true
	}
	return false
}

// NewGolden returns a fresh simulator over the reference design, the
// golden model sim.RunTestbenchSim records. It shares the oracle cache's
// compiled program with every other check of the problem, and is nil
// only when the reference does not simulate.
func (p *Problem) NewGolden() *sim.Simulator {
	r, err := p.reference()
	if err != nil {
		return nil
	}
	return r.newGolden()
}

// instantiate runs a cached program on the compiled engine, or the design
// on the walker when the engine rejected it: the cache already recorded
// the rejection, so this goes straight to the walker rather than
// re-attempting compilation through EngineAuto.
func instantiate(prog *sim.Program, design *sema.Design) (*sim.Simulator, error) {
	if prog != nil {
		return sim.NewFromProgram(prog), nil
	}
	return sim.NewWith(design, sim.EngineWalker)
}

// Check runs the problem's testbench against a candidate design: the
// candidate replays the reference's recorded response to the stimulus
// drawn from rng and must agree on every reference output after every
// cycle. The candidate must already be elaborated (compile first).
// Compilation — frontend and engine lowering — is amortized through the
// package cache, and the reference is simulated once per stimulus (the
// trace cache), so rechecking a seen candidate costs only its own
// simulation. rng advances exactly as Vectors would advance it.
func (p *Problem) Check(candidate string, rng *rand.Rand) (sim.TBResult, error) {
	return p.CheckObserved(candidate, rng, sim.TBObserve{})
}

// CheckObserved is Check with simulation-layer observability attached
// to the candidate for the run: a waveform recorder (marked at the first
// mismatch), toggle/activity coverage, or an engine execution profile. A
// zero TBObserve makes it identical to Check.
func (p *Problem) CheckObserved(candidate string, rng *rand.Rand, obs sim.TBObserve) (sim.TBResult, error) {
	prog, design, diags := oracle.Program(candidate)
	if design == nil {
		return sim.TBResult{}, fmt.Errorf("candidate does not compile: %s", diags.Summary())
	}
	r, err := p.reference()
	if err != nil {
		return sim.TBResult{}, err
	}
	in := r.stimulus(rng)
	s, err := instantiate(prog, design)
	if err != nil {
		return sim.TBResult{}, err
	}
	t := traces.Trace(r.key, in, func() *sim.Trace {
		return sim.Record(r.newGolden(), r.layout, in, r.cycles)
	})
	return sim.Replay(s, t, obs)
}

// ---------- suite access ----------

var registry = map[Suite][]*Problem{}

func register(p *Problem) {
	registry[p.Suite] = append(registry[p.Suite], p)
}

// Problems returns the suite's problems in stable ID order.
func Problems(s Suite) []*Problem {
	out := append([]*Problem(nil), registry[s]...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds a problem in a suite.
func ByID(s Suite, id string) (*Problem, bool) {
	for _, p := range registry[s] {
		if p.ID == id {
			return p, true
		}
	}
	return nil, false
}

// Stats summarizes a suite.
type Stats struct {
	Total, Easy, Hard int
}

// SuiteStats counts a suite's problems by difficulty.
func SuiteStats(s Suite) Stats {
	var st Stats
	for _, p := range registry[s] {
		st.Total++
		if p.Difficulty == Easy {
			st.Easy++
		} else {
			st.Hard++
		}
	}
	return st
}
