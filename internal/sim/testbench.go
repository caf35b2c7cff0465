package sim

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/sema"
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

// Layout places a testbench's signals in rows of 64-bit words, one row
// per cycle: the reference design's non-clock inputs in header order,
// which is the order they are driven in, and its outputs sorted by name,
// the order they are compared in. A reference's layout is built once and
// shared by every trace recorded against it.
type Layout struct {
	// Clock is the clock input pulsed every cycle, or "" for
	// combinational designs.
	Clock   string
	Inputs  []Port
	Outputs []Port
	// InWords and OutWords are the lengths of an input and an output row.
	InWords, OutWords int
	// header lists the Outputs indices in header order: a candidate
	// missing several outputs is told about the first.
	header []int
}

// Port is one signal's place in a row.
type Port struct {
	Name  string
	Width int
	// Off is the port's first word in the row; it spans
	// bitvec.WordsFor(Width) words.
	Off int
}

// Words returns the port's words within row.
func (p Port) Words(row []uint64) []uint64 {
	return row[p.Off : p.Off+bitvec.WordsFor(p.Width)]
}

// NewLayout lays out the ports of the reference design ref, whose input
// clock (if any) the runner pulses rather than drives.
func NewLayout(ref *sema.Design, clock string) *Layout {
	l := &Layout{Clock: clock}
	for _, in := range ref.Inputs() {
		if in.Name == clock {
			continue
		}
		l.Inputs = append(l.Inputs, Port{Name: in.Name, Width: in.Width(), Off: l.InWords})
		l.InWords += bitvec.WordsFor(in.Width())
	}
	outs := ref.Outputs()
	byName := make([]int, len(outs))
	for i := range byName {
		byName[i] = i
	}
	sort.Slice(byName, func(a, b int) bool { return outs[byName[a]].Name < outs[byName[b]].Name })
	l.header = make([]int, len(outs))
	for i, h := range byName {
		o := outs[h]
		l.Outputs = append(l.Outputs, Port{Name: o.Name, Width: o.Width(), Off: l.OutWords})
		l.OutWords += bitvec.WordsFor(o.Width())
		l.header[h] = i
	}
	return l
}

// Stimulus lays vectors out as input rows. An input a vector leaves out
// keeps its previous value (zero before the first cycle); a vector
// naming the clock is ignored, and one naming anything else that is not
// a reference input is an error naming it (the first in sorted order).
func (l *Layout) Stimulus(vectors []Vector) ([]uint64, error) {
	in := make([]uint64, len(vectors)*l.InWords)
	for c, vec := range vectors {
		row := in[c*l.InWords : (c+1)*l.InWords]
		if c > 0 {
			copy(row, in[(c-1)*l.InWords:])
		}
		names := make([]string, 0, len(vec.Inputs))
		for name := range vec.Inputs {
			names = append(names, name)
		}
		sort.Strings(names)
	drive:
		for _, name := range names {
			if name == l.Clock {
				continue
			}
			for _, p := range l.Inputs {
				if p.Name == name {
					vec.Inputs[name].Resize(p.Width).PutWords(p.Words(row))
					continue drive
				}
			}
			return nil, fmt.Errorf("testbench drives unknown input %q", name)
		}
	}
	return in, nil
}

// Vectors turns cycles input rows back into vectors, one value per
// input per cycle.
func (l *Layout) Vectors(in []uint64, cycles int) []Vector {
	vectors := make([]Vector, cycles)
	for c := range vectors {
		row := in[c*l.InWords : (c+1)*l.InWords]
		vectors[c].Inputs = make(map[string]bitvec.Vec, len(l.Inputs))
		for _, p := range l.Inputs {
			vectors[c].Inputs[p.Name] = bitvec.FromWords(p.Width, p.Words(row))
		}
	}
	return vectors
}

// Trace is the reference's response to one stimulus: the input rows it
// was driven with and the output row it produced after each cycle. A
// trace is immutable once recorded and shared by every candidate
// replayed against it.
type Trace struct {
	Layout *Layout
	// Cycles is the stimulus length: In holds Cycles rows.
	Cycles int
	In     []uint64
	// Out holds one row per cycle the reference completed: Done rows.
	Out  []uint64
	Done int
	// Err is the reference's runtime error in cycle Done, which ended
	// the recording; nil when it ran every cycle.
	Err error
}

var errNoReference = errors.New("testbench has no reference simulator")

// Record drives the reference simulator ref from reset through the
// stimulus in (cycles rows of l) and keeps its outputs after every
// cycle. ref's design must have every port of l. A runtime error ends
// the recording; the trace keeps it and the cycle it occurred in.
func Record(ref *Simulator, l *Layout, in []uint64, cycles int) *Trace {
	t := &Trace{Layout: l, Cycles: cycles, In: in}
	if ref == nil {
		t.Err = errNoReference
		return t
	}
	ports, drive, err := l.bind(ref)
	if err == nil {
		err = drive
	}
	if err != nil {
		t.Err = err
		return t
	}
	outs, ins := ports[:len(l.Outputs)], ports[len(l.Outputs):]
	t.Out = make([]uint64, cycles*l.OutWords)
	ref.Reset()
	for ; t.Done < cycles; t.Done++ {
		if err := l.step(ref, ins, in[t.Done*l.InWords:(t.Done+1)*l.InWords]); err != nil {
			t.Err = err
			break
		}
		row := t.Out[t.Done*l.OutWords : (t.Done+1)*l.OutWords]
		for i, p := range l.Outputs {
			ref.b.value(outs[i]).PutWords(p.Words(row))
		}
	}
	t.Out = t.Out[:t.Done*l.OutWords]
	return t
}

// bind resolves the layout's ports on s: outputs first, failing on the
// first output in header order that s does not declare as an output,
// then inputs. An input s lacks is returned as drive, the error the
// first cycle's drive meets.
func (l *Layout) bind(s *Simulator) (ports []int32, drive, err error) {
	ports = make([]int32, len(l.Outputs)+len(l.Inputs))
	for _, i := range l.header {
		name := l.Outputs[i].Name
		if sig := s.design.Signal(name); sig == nil || sig.Dir != verilog.DirOutput {
			return nil, nil, fmt.Errorf("candidate has no output port %q", name)
		}
		ports[i] = s.b.port(name)
	}
	for i, p := range l.Inputs {
		if s.design.Signal(p.Name) == nil {
			return ports, fmt.Errorf("testbench drives unknown input %q", p.Name), nil
		}
		ports[len(l.Outputs)+i] = s.b.port(p.Name)
	}
	return ports, nil, nil
}

// step runs one cycle on s: drive the input row in header order, settle,
// then pulse the clock.
func (l *Layout) step(s *Simulator, ins []int32, row []uint64) error {
	for i, p := range l.Inputs {
		if err := s.b.drive(ins[i], p.Words(row)); err != nil {
			return err
		}
	}
	if err := s.Settle(); err != nil {
		return err
	}
	if l.Clock != "" {
		return s.ClockPulse(l.Clock)
	}
	return nil
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

// Replay drives the candidate simulator s from reset through the
// trace's stimulus and compares every reference output after every
// cycle with what the reference produced: the reference RTL is the
// oracle. A reference output the candidate lacks (or declares with
// another direction) fails the run before anything is simulated. A
// runtime error (combinational loop, runaway for-loop) is returned as
// err and counts as a failed run; the candidate's error in a cycle
// comes before the reference's in the same cycle, and Cycles counts the
// cycles before it. Observability in o attaches to the candidate for
// the run and is detached before returning, so a cached simulator goes
// back to its zero-overhead configuration.
func Replay(s *Simulator, t *Trace, o TBObserve) (TBResult, error) {
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
	res, err := replay(s, t, o.Recorder)
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

func replay(s *Simulator, t *Trace, rec *wave.Recorder) (TBResult, error) {
	var res TBResult
	l := t.Layout
	ports, drive, err := l.bind(s)
	if err != nil {
		return res, err
	}
	outs, ins := ports[:len(l.Outputs)], ports[len(l.Outputs):]
	s.Reset()
	for c := 0; c < t.Cycles; c++ {
		if drive != nil {
			return res, drive
		}
		if err := l.step(s, ins, t.In[c*l.InWords:(c+1)*l.InWords]); err != nil {
			return res, err
		}
		if c == t.Done {
			return res, fmt.Errorf("reference: %w", t.Err)
		}
		res.Cycles++
		want := t.Out[c*l.OutWords : (c+1)*l.OutWords]
		for i, p := range l.Outputs {
			got, exp := s.b.value(outs[i]), p.Words(want)
			if got.EqWords(exp) {
				continue
			}
			res.Mismatches++
			if res.FirstMismatch == "" {
				res.FirstMismatch = fmt.Sprintf("cycle %d: output %s = %s, expected %s",
					c, p.Name, got.Hex(), bitvec.FromWords(p.Width, exp).Resize(got.Width()).Hex())
				if rec != nil {
					rec.Mark()
				}
			}
		}
	}
	return res, nil
}

// RunTestbenchSim scores the candidate simulator s against the reference
// simulator ref on vectors: it records ref's outputs over the vectors,
// then replays s against that trace (Replay). clock names the clock
// input for sequential designs, or is empty for combinational ones. Both
// simulators are reset before they run.
func RunTestbenchSim(s *Simulator, clock string, vectors []Vector, ref *Simulator) (TBResult, error) {
	return RunTestbenchObserved(s, clock, vectors, ref, TBObserve{})
}

// RunTestbenchObserved is RunTestbenchSim with observability attached
// to the candidate for the duration of the run.
func RunTestbenchObserved(s *Simulator, clock string, vectors []Vector, ref *Simulator, o TBObserve) (TBResult, error) {
	if ref == nil {
		return TBResult{}, errNoReference
	}
	l := NewLayout(ref.Design(), clock)
	in, err := l.Stimulus(vectors)
	if err != nil {
		return TBResult{}, err
	}
	return Replay(s, Record(ref, l, in, len(vectors)), o)
}
