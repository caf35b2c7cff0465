package sim

import (
	"fmt"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/verilog"
	"repro/internal/wave"
)

// Vector is one testbench step: the input values to drive. For clocked
// designs a vector corresponds to one clock cycle (inputs are applied,
// logic settles, then the clock pulses); for combinational designs it is
// just an input assignment.
type Vector struct {
	Inputs map[string]bitvec.Vec
}

// TBResult summarizes a testbench run.
type TBResult struct {
	Cycles     int
	Mismatches int
	// FirstMismatch describes the first failing sample, for debug logs
	// and the (future-work) simulation-feedback experiments.
	FirstMismatch string
	// Waveform holds a VCD excerpt around the first mismatch when the
	// run was observed with a recorder and failed; empty otherwise.
	Waveform string
	// Profile is the engine execution profile when the run was observed
	// with TBObserve.Profile on a compiled simulator; nil otherwise.
	Profile *wave.EngineProfile
}

// Passed reports whether the run completed with zero mismatches.
func (r TBResult) Passed() bool { return r.Mismatches == 0 }

// RunTestbenchSim drives vectors through the candidate simulator s and
// the reference simulator ref in lockstep and compares every output port
// of the reference after every vector: the reference RTL is the oracle.
// clock names the clock input for sequential designs, or is empty for
// combinational ones. Both simulators are reset before the run. A
// reference output the candidate lacks (or declares with another
// direction) and a simulator runtime error (combinational loop, runaway
// for-loop) are returned as err and count as a failed run.
func RunTestbenchSim(s *Simulator, clock string, vectors []Vector, ref *Simulator) (TBResult, error) {
	return RunTestbenchObserved(s, clock, vectors, ref, TBObserve{})
}

// TBObserve bundles the optional observability for one testbench run.
// The zero value observes nothing and adds no overhead.
type TBObserve struct {
	// Recorder, when non-nil, captures a waveform; it is marked at the
	// first mismatch so a bounded recorder yields the window around it,
	// and the excerpt is attached to TBResult.Waveform on failure.
	Recorder *wave.Recorder
	// Coverage, when non-nil, accumulates toggle/activity coverage over
	// the run (activation counts are folded in when the run ends).
	Coverage *wave.Coverage
	// Profile requests an engine execution profile in TBResult.Profile
	// (compiled backend only).
	Profile bool
}

// RunTestbenchObserved is RunTestbenchSim with observability attached
// to the candidate for the duration of the run. Observers are detached
// before returning, so a cached simulator goes back to its zero-overhead
// configuration.
func RunTestbenchObserved(s *Simulator, clock string, vectors []Vector, ref *Simulator, o TBObserve) (TBResult, error) {
	var parts []wave.Observer
	if o.Recorder != nil {
		parts = append(parts, o.Recorder)
	}
	if o.Coverage != nil {
		parts = append(parts, o.Coverage)
	}
	if obs := wave.Multi(parts...); obs != nil {
		s.Observe(obs)
		defer s.Observe(nil)
	}
	if o.Profile {
		s.EnableProfile()
	} else if o.Coverage != nil {
		s.EnableActivations()
	}
	res, err := runTestbench(s, clock, vectors, ref, o.Recorder)
	if o.Coverage != nil {
		o.Coverage.AddActivations(s.Activations())
	}
	if o.Profile {
		res.Profile = s.Profile()
	}
	if o.Recorder != nil && res.Mismatches > 0 {
		res.Waveform = o.Recorder.VCD()
	}
	return res, err
}

func runTestbench(s *Simulator, clock string, vectors []Vector, ref *Simulator, rec *wave.Recorder) (TBResult, error) {
	res := TBResult{}
	if ref == nil {
		return res, fmt.Errorf("testbench has no reference simulator")
	}
	outputs := ref.Design().Outputs()
	outNames := make([]string, 0, len(outputs))
	for _, o := range outputs {
		if sig := s.Design().Signal(o.Name); sig == nil || sig.Dir != verilog.DirOutput {
			return res, fmt.Errorf("candidate has no output port %q", o.Name)
		}
		outNames = append(outNames, o.Name)
	}
	sort.Strings(outNames)
	s.Reset()
	ref.Reset()

	for cyc, vec := range vectors {
		if err := apply(s, clock, vec); err != nil {
			return res, err
		}
		if err := apply(ref, clock, vec); err != nil {
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
					if rec != nil {
						rec.Mark()
					}
				}
			}
		}
	}
	return res, nil
}

// apply runs one vector on s: drive its inputs (the runner owns the
// clock, so a vector naming it is ignored), settle, then pulse the clock.
func apply(s *Simulator, clock string, vec Vector) error {
	for name, v := range vec.Inputs {
		if name == clock {
			continue
		}
		if s.design.Signal(name) == nil {
			return fmt.Errorf("testbench drives unknown input %q", name)
		}
		if err := s.SetInput(name, v); err != nil {
			return err
		}
	}
	if err := s.Settle(); err != nil {
		return err
	}
	if clock != "" {
		return s.ClockPulse(clock)
	}
	return nil
}
