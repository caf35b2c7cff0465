// Package dataset holds the benchmark problem corpora standing in for
// VerilogEval-Machine, VerilogEval-Human, and RTLLM. Each problem pairs a
// natural-language description (machine-style low-level or human-style
// high-level, matching the two VerilogEval tracks) with a reference
// Verilog implementation. The reference is the only specification of a
// problem's correct output: as in VerilogEval's harness, the pass@k
// oracle simulates a candidate beside the reference on the same vectors
// and compares every output after every cycle.
//
// The suite sizes mirror the paper: Human has 156 problems split 71 easy /
// 85 hard (the paper's split at pass-rate 0.1), Machine has 143, and the
// RTLLM-style suite holds larger multi-feature designs.
package dataset

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/bitvec"
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
}

// Vectors generates the problem's stimulus: random values on every
// non-clock input, with reset-style inputs held high for the first two
// cycles so reference and candidate leave reset together.
func (p *Problem) Vectors(rng *rand.Rand) ([]sim.Vector, error) {
	_, design, diags := oracle.Frontend(p.RefSource)
	if design == nil {
		return nil, fmt.Errorf("problem %s: reference does not compile: %s", p.ID, diags.Summary())
	}
	n := p.Cycles
	if n == 0 {
		n = 64
	}
	inputs := design.Inputs()
	var vectors []sim.Vector
	for c := 0; c < n; c++ {
		v := sim.Vector{Inputs: map[string]bitvec.Vec{}}
		for _, in := range inputs {
			if in.Name == p.Clock {
				continue
			}
			if isResetName(in.Name) {
				if c < 2 {
					v.Inputs[in.Name] = bitvec.FromUint64(in.Width(), 1)
				} else {
					// occasional mid-run reset pulses exercise the reset
					// path beyond the preamble
					val := uint64(0)
					if rng.Intn(16) == 0 {
						val = 1
					}
					v.Inputs[in.Name] = bitvec.FromUint64(in.Width(), val)
				}
				continue
			}
			v.Inputs[in.Name] = randomVec(rng, in.Width())
		}
		vectors = append(vectors, v)
	}
	return vectors, nil
}

func isResetName(name string) bool {
	switch name {
	case "rst", "reset", "areset", "rst_n", "resetn":
		return true
	}
	return false
}

func randomVec(rng *rand.Rand, width int) bitvec.Vec {
	v := bitvec.New(width)
	for i := 0; i < width; i += 64 {
		chunk := rng.Uint64()
		for b := 0; b < 64 && i+b < width; b++ {
			if chunk>>b&1 == 1 {
				v.SetBitInPlace(i+b, true)
			}
		}
	}
	return v
}

// NewGolden returns a fresh simulator over the reference design, the
// golden model a candidate runs beside in sim.RunTestbenchSim. It shares
// the oracle cache's compiled program with every other check of the
// problem, and is nil only when the reference does not simulate.
func (p *Problem) NewGolden() *sim.Simulator {
	prog, design, _ := oracle.Program(p.RefSource)
	if design == nil {
		return nil
	}
	s, _ := instantiate(prog, design) // nil fails the testbench run, which says so
	return s
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
// candidate and the reference step through the same vectors and must
// agree on every reference output after every cycle. The candidate must
// already be elaborated (compile first). Compilation — frontend and
// engine lowering — is amortized through the package cache, so rechecking
// a seen candidate costs only the simulation itself.
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
	vectors, err := p.Vectors(rng)
	if err != nil {
		return sim.TBResult{}, err
	}
	s, err := instantiate(prog, design)
	if err != nil {
		return sim.TBResult{}, err
	}
	return sim.RunTestbenchObserved(s, p.Clock, vectors, p.NewGolden(), obs)
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
