package sim

// This file is the facade's observability surface: attaching a
// wave.Observer samples every signal after each successful Settle, and
// the profiling/activation hooks expose the compiled engine's
// nil-guarded counters. Everything here is strictly opt-in — with
// nothing attached the hot path pays one nil check per settle and
// allocates nothing, which the engine's steady-state AllocsPerRun tests
// pin.

import (
	"sort"

	"repro/internal/bitvec"
	"repro/internal/wave"
)

// Observe attaches an observer (nil detaches). The observer's Init is
// called immediately with the design's signals in sorted-name order;
// from then on every successful Settle — including the three inside
// ClockPulse — delivers one Sample whose values alias live simulator
// storage. Use wave.Multi to attach several observers at once.
func (s *Simulator) Observe(o wave.Observer) {
	if o == nil {
		s.obs = nil
		s.obsNames = nil
		s.obsVals = nil
		return
	}
	names := make([]string, 0, len(s.design.Signals))
	for name := range s.design.Signals {
		names = append(names, name)
	}
	sort.Strings(names)
	sigs := make([]wave.Signal, len(names))
	for i, name := range names {
		sigs[i] = wave.Signal{Name: name, Width: s.design.Signals[name].Width()}
	}
	o.Init(s.design.Module.Name, sigs)
	s.obs = o
	s.obsNames = names
	s.obsVals = make([]bitvec.Vec, len(names))
	s.obsTime = 0
}

// sample delivers one post-settle snapshot to the attached observer.
func (s *Simulator) sample() {
	for i, name := range s.obsNames {
		s.obsVals[i] = s.b.Get(name)
	}
	s.obs.Sample(s.obsTime, s.obsVals)
	s.obsTime++
}

// EnableActivations (re)arms per-process activation counting on the
// backend; counters start at zero. Only the compiled engine counts.
func (s *Simulator) EnableActivations() {
	if e, ok := s.b.(*engine); ok {
		e.enableActivations()
	}
}

// Activations returns the per-process activation counts accumulated
// since EnableActivations, or nil when counting is off. Process order is
// the compiled program's: continuous assigns, then combinational always
// blocks, then clocked always blocks.
func (s *Simulator) Activations() []uint64 {
	if e, ok := s.b.(*engine); ok {
		return e.activationCounts()
	}
	return nil
}

// EnableProfile (re)arms full execution profiling — opcode histogram,
// fixpoint iteration counts, per-process activations — and reports
// whether the backend supports it (only the compiled engine does).
func (s *Simulator) EnableProfile() bool {
	if e, ok := s.b.(*engine); ok {
		e.enableProfile()
		return true
	}
	return false
}

// Profile snapshots the execution profile accumulated since
// EnableProfile, or nil when profiling is off or unsupported.
func (s *Simulator) Profile() *wave.EngineProfile {
	if e, ok := s.b.(*engine); ok {
		return e.profileSnapshot()
	}
	return nil
}
