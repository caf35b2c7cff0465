package sim

// This file is the facade's observability surface: attaching a
// wave.Observer samples every signal after each successful Settle, and
// the profiling/activation hooks expose the compiled engine's
// nil-guarded counters. Everything here is strictly opt-in — with
// nothing attached the hot path pays one nil check per settle and
// allocates nothing, which the engine's steady-state AllocsPerRun tests
// pin.

import (
	"slices"
	"strings"

	"repro/internal/bitvec"
	"repro/internal/sema"
	"repro/internal/wave"
)

// Observe attaches an observer (nil detaches). The observer's Init is
// called immediately with the design's signals in sorted-name order (a
// table shared by every instance of a program, which observers must not
// modify); from then on every successful Settle — including the three
// inside ClockPulse — delivers one Sample whose values alias live
// simulator storage. Use wave.Multi to attach several observers at once.
func (s *Simulator) Observe(o wave.Observer) {
	if o == nil {
		s.obs = nil
		s.obsPorts = nil
		s.obsVals = nil
		return
	}
	o.Init(s.design.Module.Name, s.signals)
	s.obs = o
	s.obsPorts = make([]int32, len(s.signals))
	for i, sig := range s.signals {
		s.obsPorts[i] = s.b.port(sig.Name)
	}
	s.obsVals = make([]bitvec.Vec, len(s.signals))
	s.obsTime = 0
}

// sample delivers one post-settle snapshot to the attached observer.
func (s *Simulator) sample() {
	for i, port := range s.obsPorts {
		s.obsVals[i] = s.b.value(port)
	}
	s.obs.Sample(s.obsTime, s.obsVals)
	s.obsTime++
}

// signalTable lists the design's signals in sorted-name order with their
// widths: the compiled program's slot order, and the table Observe hands
// to observers on either backend.
func signalTable(d *sema.Design) []wave.Signal {
	sigs := make([]wave.Signal, 0, len(d.Signals))
	for name, sig := range d.Signals {
		sigs = append(sigs, wave.Signal{Name: name, Width: sig.Width()})
	}
	slices.SortFunc(sigs, func(a, b wave.Signal) int { return strings.Compare(a.Name, b.Name) })
	return sigs
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
