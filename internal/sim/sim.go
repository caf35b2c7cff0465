// Package sim is a two-phase cycle simulator for elaborated Verilog
// designs: combinational settling to a fixpoint plus clocked updates with
// non-blocking-assignment semantics. It is the functional-correctness
// oracle behind the paper's pass@k measurements — a problem's testbench
// drives input vectors through the design and compares outputs against the
// problem's reference model.
//
// The simulator is two-state (no X/Z). Registers reset to zero, which the
// benchmark's testbenches account for by driving a reset sequence first.
//
// Two execution backends share one public API:
//
//   - The compiled engine (the default): Compile lowers the elaborated
//     design once — every signal interned into a dense slot index, every
//     assign and always block flattened into an instruction sequence over
//     those slots, combinational processes scheduled in dependency
//     (topological) order with bounded fixpoint iteration reserved for
//     genuine cycles. Steady-state cycles run with zero heap allocations
//     on designs up to 64 bits wide. Compiled Programs are immutable and
//     shareable; NewFromProgram makes the per-run instantiation cheap.
//   - The legacy tree-walker: the original AST interpreter, kept as the
//     reference oracle (differential tests assert bit-identical outputs)
//     and as the automatic fallback for the rare construct the compiler
//     rejects.
//
// DiffSource and DiffDesign are the shared differential path holding the
// two backends to agreement: both instantiated on one design, driven
// with identical seeded random inputs, every signal compared every cycle
// plus the full state at the end. The unit tests, the permanent
// regression table (engine_regress_test.go), the native
// FuzzDifferential target, and the internal/fuzz campaign runner and
// minimizer all funnel through it.
//
// The facade is also the observability hook point: Observe attaches a
// wave.Observer that receives one full-signal snapshot after every
// successful Settle (waveform capture, toggle coverage), and
// EnableProfile/EnableActivations expose the compiled engine's opcode
// histogram, fixpoint iteration counts, and per-process activation
// counters. All of it is opt-in and nil-guarded: with nothing attached
// the hot path pays a single nil check per settle, and the engine's
// steady-state zero-allocation guarantee is unchanged (pinned by
// AllocsPerRun tests).
package sim

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/fault"
	"repro/internal/resilience"
	"repro/internal/sema"
	"repro/internal/wave"
)

// settleLimit bounds combinational fixpoint iteration; exceeding it means a
// combinational loop (oscillation).
const settleLimit = 64

// loopLimit bounds procedural for-loop trip counts so a runaway loop in
// generated code cannot hang the benchmark harness.
const loopLimit = 1 << 16

// Engine selects a simulation backend.
type Engine int

// Backend choices.
const (
	// EngineAuto compiles the design and falls back to the walker when
	// compilation rejects a construct. This is the default.
	EngineAuto Engine = iota
	// EngineCompiled requires the compiled backend; New fails when the
	// design cannot be compiled.
	EngineCompiled
	// EngineWalker forces the legacy tree-walking interpreter — the
	// reference oracle for differential testing.
	EngineWalker
)

// backend is the contract both evaluators implement. ClockPulse is built
// on top of these in the facade so both backends share identical clocking
// semantics.
type backend interface {
	Reset()
	Get(name string) bitvec.Vec
	SetInput(name string, v bitvec.Vec) error
	SetInputUint(name string, v uint64) error
	Settle() error
	// port resolves a signal of the design to a handle for value and
	// drive; the testbench resolves its ports once per run.
	port(name string) int32
	value(port int32) bitvec.Vec
	// drive is SetInput from raw little-endian words.
	drive(port int32, words []uint64) error
}

// Simulator is one design instance. It delegates to whichever backend New
// selected; the API and observable behaviour are identical either way.
type Simulator struct {
	design   *sema.Design
	b        backend
	compiled bool
	wd       *resilience.Watchdog

	// Observation state (observe.go). obs is nil unless an observer is
	// attached; obsNames/obsVals are the preallocated snapshot carriers
	// so sampling itself does not allocate.
	obs      wave.Observer
	obsNames []string
	obsVals  []bitvec.Vec
	obsTime  uint64
}

// watchdogSettable is implemented by backends that check the watchdog
// inside their settle fixpoint loops, so a runaway settle is canceled
// mid-iteration, not merely at the next cycle boundary.
type watchdogSettable interface {
	setWatchdog(*resilience.Watchdog)
}

// SetWatchdog arms (or, with nil, disarms) a wall-clock/cycle budget on
// this simulator. Every Settle — including the three inside ClockPulse —
// consumes one watchdog step, and both backends check the budget inside
// their fixpoint loops. A nil watchdog costs nothing on the hot path.
func (s *Simulator) SetWatchdog(wd *resilience.Watchdog) {
	s.wd = wd
	if ws, ok := s.b.(watchdogSettable); ok {
		ws.setWatchdog(wd)
	}
}

// New builds a simulator over an elaborated design using the default
// backend policy (EngineAuto). It fails when the design is nil or uses
// constructs neither backend supports.
func New(design *sema.Design) (*Simulator, error) {
	return NewWith(design, EngineAuto)
}

// NewWith builds a simulator with an explicit backend choice.
func NewWith(design *sema.Design, eng Engine) (*Simulator, error) {
	if design == nil {
		return nil, fmt.Errorf("sim: nil design")
	}
	if eng != EngineWalker {
		prog, err := Compile(design)
		if err == nil {
			return &Simulator{design: design, b: newEngine(prog), compiled: true}, nil
		}
		if eng == EngineCompiled {
			return nil, err
		}
	}
	w, err := newWalkerSim(design)
	if err != nil {
		return nil, err
	}
	return &Simulator{design: design, b: w}, nil
}

// NewFromProgram instantiates a simulator over an already-compiled
// program. The program is immutable and may be shared across goroutines;
// each call returns independent mutable state, so a cached Program turns
// the per-testbench-run cost into a single allocation pass.
func NewFromProgram(p *Program) *Simulator {
	return &Simulator{design: p.design, b: newEngine(p), compiled: true}
}

// Compiled reports whether the compiled engine backs this simulator.
func (s *Simulator) Compiled() bool { return s.compiled }

// Design returns the elaborated design the simulator runs.
func (s *Simulator) Design() *sema.Design { return s.design }

// Reset zeroes every signal and re-applies declaration initializers.
func (s *Simulator) Reset() { s.b.Reset() }

// Get returns the current value of a signal (zero vector for unknown
// names, so probing never panics mid-benchmark). The returned vector is
// valid until the next simulator mutation; callers that retain values
// across cycles must copy them.
func (s *Simulator) Get(name string) bitvec.Vec { return s.b.Get(name) }

// SetInput drives an input port. Edges produced by the change trigger
// edge-sensitive always blocks whose sensitivity list mentions the signal
// (asynchronous resets).
func (s *Simulator) SetInput(name string, v bitvec.Vec) error { return s.b.SetInput(name, v) }

// SetInputUint drives an input port from a uint64.
func (s *Simulator) SetInputUint(name string, v uint64) error { return s.b.SetInputUint(name, v) }

// Settle evaluates continuous assigns and combinational always blocks to a
// fixpoint. With a watchdog armed it consumes one step and enforces the
// budget; the sim.stall fault point can inject a stall here.
func (s *Simulator) Settle() error {
	fault.Delay(fault.SimStall)
	if err := s.wd.Step(1); err != nil {
		return err
	}
	if err := s.b.Settle(); err != nil {
		return err
	}
	if s.obs != nil {
		s.sample()
	}
	return nil
}

// ClockPulse produces a full 0→1→0 pulse on the named signal. Combinational
// logic settles before the rising edge (so next-state logic sees the inputs
// driven since the last cycle), and again after each edge.
func (s *Simulator) ClockPulse(name string) error {
	if err := s.Settle(); err != nil {
		return err
	}
	if err := s.b.SetInputUint(name, 1); err != nil {
		return err
	}
	if err := s.Settle(); err != nil {
		return err
	}
	if err := s.b.SetInputUint(name, 0); err != nil {
		return err
	}
	return s.Settle()
}
