package wave

import "repro/internal/bitvec"

// RefCoverage is the per-signal Coverage that the flat-plane one
// replaced, kept as the test-only reference the differential holds
// Coverage to: one bitvec.Vec per signal for each of prev, rose, fell
// and two scratch vectors, and one toggle count per signal. Its Stats
// and Signature must equal Coverage's on every run.
type RefCoverage struct {
	module  string
	signals []Signal
	// prev holds the previous sample per signal; the first sample only
	// initializes it (power-on values are state, not toggles).
	prev  []bitvec.Vec
	have  bool
	rose  []bitvec.Vec // sticky per-bit 0→1 masks
	fell  []bitvec.Vec // sticky per-bit 1→0 masks
	diff  []bitvec.Vec // scratch: bits that changed this sample
	tmp   []bitvec.Vec // scratch: direction-filtered change bits
	tog   []uint64     // per-signal toggle events (changed bits summed)
	procs []uint64     // per-process activations (AddActivations)

	samples uint64
}

// Init implements Observer.
func (c *RefCoverage) Init(module string, signals []Signal) {
	c.module = module
	c.signals = signals
	n := len(signals)
	c.prev = make([]bitvec.Vec, n)
	c.rose = make([]bitvec.Vec, n)
	c.fell = make([]bitvec.Vec, n)
	c.diff = make([]bitvec.Vec, n)
	c.tmp = make([]bitvec.Vec, n)
	c.tog = make([]uint64, n)
	for i, sig := range signals {
		c.prev[i] = bitvec.New(sig.Width)
		c.rose[i] = bitvec.New(sig.Width)
		c.fell[i] = bitvec.New(sig.Width)
		c.diff[i] = bitvec.New(sig.Width)
		c.tmp[i] = bitvec.New(sig.Width)
	}
	c.have = false
	c.samples = 0
}

// Sample implements Observer: diff each signal against the previous
// sample and fold rising/falling bits into the sticky masks.
func (c *RefCoverage) Sample(t uint64, vals []bitvec.Vec) {
	c.samples++
	if !c.have {
		for i := range vals {
			c.prev[i].CopyResize(vals[i])
		}
		c.have = true
		return
	}
	for i := range vals {
		c.diff[i].XorOf(vals[i], c.prev[i])
		if c.diff[i].IsZero() {
			continue
		}
		c.tog[i] += uint64(c.diff[i].PopCount())
		c.tmp[i].AndOf(c.diff[i], vals[i]) // changed and now 1: rose
		c.rose[i].OrOf(c.rose[i], c.tmp[i])
		c.tmp[i].AndOf(c.diff[i], c.prev[i]) // changed and was 1: fell
		c.fell[i].OrOf(c.fell[i], c.tmp[i])
		c.prev[i].CopyResize(vals[i])
	}
}

// AddActivations folds per-process activation counts (from
// sim.Simulator.Activations) into the coverage; repeated calls
// accumulate element-wise.
func (c *RefCoverage) AddActivations(acts []uint64) {
	if len(acts) == 0 {
		return
	}
	if len(c.procs) < len(acts) {
		grown := make([]uint64, len(acts))
		copy(grown, c.procs)
		c.procs = grown
	}
	for i, a := range acts {
		c.procs[i] += a
	}
}

// Stats computes the current summary.
func (c *RefCoverage) Stats() Stats {
	st := Stats{Module: c.module, Signals: len(c.signals), Samples: c.samples}
	for i, sig := range c.signals {
		st.Bits += sig.Width
		st.Toggles += c.tog[i]
		r, f := c.rose[i].PopCount(), c.fell[i].PopCount()
		st.PointsCovered += r + f
		// Bits toggled in either direction: |rose ∪ fell|.
		c.tmp[i].OrOf(c.rose[i], c.fell[i])
		st.BitsToggled += c.tmp[i].PopCount()
	}
	st.PointsTotal = 2 * st.Bits
	st.Processes = len(c.procs)
	for _, a := range c.procs {
		if a > 0 {
			st.ProcessesActive++
		}
	}
	return st
}

// Signature hashes the accumulated coverage into the fixed point space:
// one point per (signal, bit, direction) seen toggling and one per
// process that activated.
func (c *RefCoverage) Signature() *Signature {
	sig := &Signature{}
	for i, s := range c.signals {
		hname := hashString(fnvOffset, s.Name)
		for b := 0; b < s.Width; b++ {
			if c.rose[i].Bit(b) {
				sig.addKey(hashUint(hashString(hname, "r"), uint64(b)))
			}
			if c.fell[i].Bit(b) {
				sig.addKey(hashUint(hashString(hname, "f"), uint64(b)))
			}
		}
	}
	for pi, a := range c.procs {
		if a > 0 {
			sig.addKey(hashUint(hashString(fnvOffset, "proc"), uint64(pi)))
		}
	}
	return sig
}
