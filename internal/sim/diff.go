package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/bitvec"
	"repro/internal/resilience"
	"repro/internal/sema"
	"repro/internal/verilog"
	"repro/internal/wave"
)

// This file is the single walker-vs-engine comparison path shared by the
// unit tests, the generative fuzz harness (internal/fuzz), and the
// delta-debugging minimizer. All three must agree on what "diverges"
// means, so none of them roll their own loop.

// ClockInput names the design's clock input, the first input port
// called clk or clock in any letter case, or "" when the design is to be
// driven combinationally. It is the one clock lookup of the tools that
// simulate a design they did not write a testbench for: vlint and
// rtlfixer -coverage/-vcd, and the fix service's sim check.
func ClockInput(d *sema.Design) string {
	for _, in := range d.Inputs() {
		switch strings.ToLower(in.Name) {
		case "clk", "clock":
			return in.Name
		}
	}
	return ""
}

// DiffConfig controls one differential run.
type DiffConfig struct {
	// Clock names the clock input, pulsed once per cycle after inputs
	// settle. Empty means purely combinational: settle only.
	Clock string
	// Cycles is the number of input vectors to drive. Zero defaults
	// to 16.
	Cycles int
	// Seed feeds the deterministic input-trace generator.
	Seed int64
	// MaxMismatches bounds how many mismatches are recorded before the
	// run stops. Zero defaults to 1 (stop at first divergence).
	MaxMismatches int
	// Coverage, when non-nil, accumulates toggle/activity coverage from
	// the engine side of the run — the signal the coverage-guided fuzzer
	// feeds on.
	Coverage *wave.Coverage
	// Recorder, when non-nil, captures an engine-side waveform; it is
	// marked at the first divergence, so a bounded recorder yields the
	// window around it.
	Recorder *wave.Recorder
}

// Mismatch is one signal disagreement between the two backends.
type Mismatch struct {
	Cycle  int
	Signal string
	Engine string // hex value from the compiled engine
	Walker string // hex value from the tree-walker
	Final  bool   // found during the final full-state sweep
}

func (m Mismatch) String() string {
	where := fmt.Sprintf("cycle %d", m.Cycle)
	if m.Final {
		where = "final state"
	}
	return fmt.Sprintf("%s: %s: engine=%s walker=%s", where, m.Signal, m.Engine, m.Walker)
}

// DiffReport accumulates the outcome of a differential run.
type DiffReport struct {
	Cycles     int // cycles actually driven
	Compared   int // signal comparisons performed
	Mismatches []Mismatch
	// Halted is set when both backends agreed to fail (settle limit,
	// loop limit); the run stops early but is not a divergence.
	Halted bool
}

// Diverged reports whether the two backends disagreed anywhere.
func (r *DiffReport) Diverged() bool { return len(r.Mismatches) > 0 }

// First returns the first recorded mismatch, or a zero Mismatch.
func (r *DiffReport) First() Mismatch {
	if len(r.Mismatches) == 0 {
		return Mismatch{}
	}
	return r.Mismatches[0]
}

// CheckWall and CheckSteps are the fixed watchdog budget of a short
// simulation of untrusted source: the server's post-fix smoke check
// (one settle and one clock pulse), and each wallCycles-cycle slice of a
// DiffSource run. A healthy design finishes such a run in microseconds,
// so the budget only ever trips on a runaway: a loop nest in one edge or
// a settle that does not converge.
const (
	CheckWall  = 2 * time.Second
	CheckSteps = 64
)

// wallCycles is how many driven cycles one CheckWall covers in a
// DiffSource run. Up to that many (vlint drives 8, a fuzz campaign 12 by
// default) the run has the smoke check's 2 s; a longer run gets one more
// CheckWall per further wallCycles, so a healthy design is never cut
// short by its length, whatever -cycles asks for.
const wallCycles = 64

// diffWall is the wall budget of a DiffSource run of cycles cycles.
func diffWall(cycles int) time.Duration {
	return CheckWall * time.Duration((cycles+wallCycles-1)/wallCycles)
}

// DiffSource parses, elaborates, and differentially runs src through the
// compiled engine and the tree-walker, driving Cycles random input
// vectors from Seed, comparing every signal after each settle/clock step
// and the full state at the end. Frontend or compile rejection returns
// an error (callers treat that as "skip", not as a divergence), as does
// a disagreement about halting; divergences are reported via the
// DiffReport, not the error.
//
// The whole run, both backends together, is under one watchdog of
// CheckSteps per driven cycle and diffWall(Cycles); a trip returns the
// watchdog error (resilience.IsWatchdog), so untrusted source cannot
// hold the caller past the budget.
func DiffSource(src string, cfg DiffConfig) (*DiffReport, error) {
	file, diags := verilog.Parse(src)
	if diags.HasErrors() {
		return nil, fmt.Errorf("parse: %s", diags.Summary())
	}
	design, diags := sema.Elaborate(file)
	if diags.HasErrors() {
		return nil, fmt.Errorf("elaborate: %s", diags.Summary())
	}
	if cfg.Cycles <= 0 {
		cfg.Cycles = 16
	}
	if cfg.MaxMismatches <= 0 {
		cfg.MaxMismatches = 1
	}
	prog, err := Compile(design)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	eng := NewFromProgram(prog)
	wlk, err := NewWith(design, EngineWalker)
	if err != nil {
		return nil, fmt.Errorf("walker: %w", err)
	}
	wd := resilience.NewWatchdog(diffWall(cfg.Cycles), CheckSteps*int64(cfg.Cycles))
	eng.SetWatchdog(wd)
	wlk.SetWatchdog(wd)
	var parts []wave.Observer
	if cfg.Recorder != nil {
		parts = append(parts, cfg.Recorder)
	}
	if cfg.Coverage != nil {
		parts = append(parts, cfg.Coverage)
	}
	if obs := wave.Multi(parts...); obs != nil {
		eng.Observe(obs)
	}
	if cfg.Coverage != nil {
		eng.EnableActivations()
		defer func() { cfg.Coverage.AddActivations(eng.Activations()) }()
	}

	// Sorted signal order keeps mismatch reporting deterministic
	// across runs — essential for the minimizer's re-check loop.
	names := make([]string, 0, len(design.Signals))
	for name := range design.Signals {
		names = append(names, name)
	}
	sort.Strings(names)

	rep := &DiffReport{}
	rng := rand.New(rand.NewSource(cfg.Seed))
	inputs := design.Inputs()
	for cyc := 0; cyc < cfg.Cycles; cyc++ {
		for _, in := range inputs {
			if in.Name == cfg.Clock {
				continue
			}
			v := bitvec.New(in.Width())
			for b := 0; b < in.Width(); b++ {
				if rng.Intn(2) == 1 {
					v.SetBitInPlace(b, true)
				}
			}
			if err := eng.SetInput(in.Name, v); err != nil {
				return nil, err
			}
			if err := wlk.SetInput(in.Name, v); err != nil {
				return nil, err
			}
		}
		errE, errW := eng.Settle(), wlk.Settle()
		if err := watchdogTrip(errE, errW); err != nil {
			return rep, err
		}
		if (errE == nil) != (errW == nil) {
			return rep, fmt.Errorf("cycle %d: settle disagreement: engine=%v walker=%v", cyc, errE, errW)
		}
		if errE != nil {
			// Both hit the settle limit: agreed halt, not a bug.
			rep.Halted = true
			return rep, nil
		}
		if cfg.Clock != "" {
			errE, errW = eng.ClockPulse(cfg.Clock), wlk.ClockPulse(cfg.Clock)
			if err := watchdogTrip(errE, errW); err != nil {
				return rep, err
			}
			if (errE == nil) != (errW == nil) {
				return rep, fmt.Errorf("cycle %d: clock disagreement: engine=%v walker=%v", cyc, errE, errW)
			}
			if errE != nil {
				rep.Halted = true
				return rep, nil
			}
		}
		rep.Cycles++
		for _, name := range names {
			ev, wv := eng.Get(name), wlk.Get(name)
			rep.Compared++
			if !ev.Eq(wv) {
				rep.Mismatches = append(rep.Mismatches, Mismatch{
					Cycle: cyc, Signal: name, Engine: ev.Hex(), Walker: wv.Hex(),
				})
				if cfg.Recorder != nil {
					cfg.Recorder.Mark()
				}
				if len(rep.Mismatches) >= cfg.MaxMismatches {
					return rep, nil
				}
			}
		}
	}
	// Final full-state sweep: catches divergence in state that the
	// per-cycle loop already covered, but keeps the contract explicit
	// ("outputs per cycle + final state").
	for _, name := range names {
		ev, wv := eng.Get(name), wlk.Get(name)
		rep.Compared++
		if !ev.Eq(wv) {
			rep.Mismatches = append(rep.Mismatches, Mismatch{
				Cycle: rep.Cycles, Signal: name, Engine: ev.Hex(), Walker: wv.Hex(), Final: true,
			})
			if cfg.Recorder != nil {
				cfg.Recorder.Mark()
			}
			if len(rep.Mismatches) >= cfg.MaxMismatches {
				return rep, nil
			}
		}
	}
	return rep, nil
}

// watchdogTrip returns whichever of the two backends' errors is a
// watchdog trip, or nil.
func watchdogTrip(errE, errW error) error {
	if resilience.IsWatchdog(errE) {
		return errE
	}
	if resilience.IsWatchdog(errW) {
		return errW
	}
	return nil
}
