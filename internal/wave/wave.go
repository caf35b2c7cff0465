// Package wave is the simulation-layer observability toolkit: an
// observer interface the simulator facade samples after every settle,
// with three consumers built on top of it — a VCD recorder that keeps a
// bounded waveform window around a point of interest (the first
// testbench mismatch), toggle/activity coverage folded into a compact
// signature the fuzzer uses for corpus guidance, and a compiled-engine
// execution profile (opcode histogram, fixpoint iteration counts,
// hottest-process attribution).
//
// The package is a leaf: it depends only on internal/bitvec, so
// internal/sim can import it without a cycle. Observation is strictly
// opt-in — a simulator with no observer attached takes a single nil
// check per settle and allocates nothing, which the engine's
// steady-state AllocsPerRun guard pins.
package wave

import "repro/internal/bitvec"

// Signal describes one observed signal: its design name and bit width.
type Signal struct {
	Name  string
	Width int
}

// Observer consumes post-settle snapshots from a running simulator.
//
// Init is called once when the observer is attached, with the module
// name and the signals that every subsequent Sample covers, in a fixed
// order. The signals slice may be shared with other observers and
// simulators; observers read it and never modify it. Sample receives one snapshot per settle: t is a monotonically
// increasing observation index (three per clock cycle under ClockPulse:
// pre-edge, post-rise, post-fall), and vals[i] is signals[i]'s current
// value. The vectors alias live simulator storage and are only valid
// during the call; observers that retain values must copy them.
type Observer interface {
	Init(module string, signals []Signal)
	Sample(t uint64, vals []bitvec.Vec)
}

// multi fans samples out to several observers in order.
type multi struct{ obs []Observer }

func (m *multi) Init(module string, signals []Signal) {
	for _, o := range m.obs {
		o.Init(module, signals)
	}
}

func (m *multi) Sample(t uint64, vals []bitvec.Vec) {
	for _, o := range m.obs {
		o.Sample(t, vals)
	}
}

// Multi combines observers into one; nil entries are dropped. Returns
// nil when nothing remains (so the caller's nil fast path stays intact)
// and the observer itself when exactly one remains.
func Multi(obs ...Observer) Observer {
	kept := make([]Observer, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return &multi{obs: kept}
}
