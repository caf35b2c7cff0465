package wave

import (
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
)

// Coverage is an Observer accumulating toggle/activity coverage over a
// run: per-signal sticky masks of bits seen rising (0→1) and falling
// (1→0), the total toggle-event count, and — folded in separately via
// AddActivations — per-process activation counts. The whole run merges
// into a compact Signature for corpus guidance and into Stats for
// reporting.
//
// The per-signal state is three flat word planes, one allocation for
// the whole design: signal i owns words [off, off+WordsFor(width)) of
// each plane, where off sums the word counts of the signals before it.
type Coverage struct {
	module  string
	signals []Signal
	// prev holds the previous sample (the first sample only initializes
	// it: power-on values are state, not toggles); rose and fell are the
	// sticky per-bit 0→1 and 1→0 masks.
	prev, rose, fell []uint64
	have             bool
	toggles          uint64   // bit-change events (changed bits summed)
	procs            []uint64 // per-process activations (AddActivations)

	samples uint64
}

// NewCoverage builds an empty coverage accumulator.
func NewCoverage() *Coverage { return &Coverage{} }

// Init implements Observer.
func (c *Coverage) Init(module string, signals []Signal) {
	c.module = module
	c.signals = signals
	n := 0
	for _, sig := range signals {
		n += bitvec.WordsFor(sig.Width)
	}
	planes := make([]uint64, 3*n)
	c.prev, c.rose, c.fell = planes[:n:n], planes[n:2*n:2*n], planes[2*n:]
	c.have = false
	c.toggles = 0
	c.samples = 0
}

// Sample implements Observer: diff each signal against the previous
// sample and fold rising/falling bits into the sticky masks.
func (c *Coverage) Sample(t uint64, vals []bitvec.Vec) {
	c.samples++
	first := !c.have
	c.have = true
	off := 0
	for i, sig := range c.signals {
		nw := bitvec.WordsFor(sig.Width)
		for j := 0; j < nw; j++ {
			cur := vals[i].Word(j)
			if j == nw-1 {
				cur &= topMask(sig.Width)
			}
			w := off + j
			if first {
				c.prev[w] = cur
				continue
			}
			d := cur ^ c.prev[w]
			if d == 0 {
				continue
			}
			c.toggles += uint64(bits.OnesCount64(d))
			c.rose[w] |= d & cur
			c.fell[w] |= d & c.prev[w]
			c.prev[w] = cur
		}
		off += nw
	}
}

// topMask keeps the bits of a width's last word.
func topMask(width int) uint64 {
	if r := width % 64; r != 0 {
		return 1<<r - 1
	}
	return ^uint64(0)
}

// AddActivations folds per-process activation counts (from
// sim.Simulator.Activations) into the coverage; repeated calls
// accumulate element-wise.
func (c *Coverage) AddActivations(acts []uint64) {
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

// Stats summarizes a coverage accumulation for tables and /v1/stats.
type Stats struct {
	Module  string
	Signals int
	// Bits is the total observed signal bits; each contributes two
	// coverage points (seen rising, seen falling).
	Bits int
	// BitsToggled counts bits seen changing in at least one direction.
	BitsToggled int
	// PointsCovered / PointsTotal are the toggle-point tallies
	// (PointsTotal = 2×Bits) plus nothing else — process activity is
	// reported separately so the two planes stay attributable.
	PointsCovered int
	PointsTotal   int
	// Processes / ProcessesActive count design processes (continuous
	// assigns and always blocks) and how many executed at least once.
	Processes       int
	ProcessesActive int
	// Toggles is the total number of bit-change events observed.
	Toggles uint64
	// Samples is the number of post-settle snapshots folded in.
	Samples uint64
}

// Fraction is the single-number coverage figure: covered points
// (toggle directions seen plus processes activated) over all points.
// Zero when nothing was observable.
func (s Stats) Fraction() float64 {
	total := s.PointsTotal + s.Processes
	if total == 0 {
		return 0
	}
	return float64(s.PointsCovered+s.ProcessesActive) / float64(total)
}

func (s Stats) String() string {
	return fmt.Sprintf("coverage %.1f%%: %d/%d toggle points (%d/%d bits), %d/%d processes, %d toggles over %d samples",
		100*s.Fraction(), s.PointsCovered, s.PointsTotal, s.BitsToggled, s.Bits,
		s.ProcessesActive, s.Processes, s.Toggles, s.Samples)
}

// Stats computes the current summary.
func (c *Coverage) Stats() Stats {
	st := Stats{Module: c.module, Signals: len(c.signals), Samples: c.samples, Toggles: c.toggles}
	for _, sig := range c.signals {
		st.Bits += sig.Width
	}
	for w, r := range c.rose {
		f := c.fell[w]
		st.PointsCovered += bits.OnesCount64(r) + bits.OnesCount64(f)
		// Bits toggled in either direction: |rose ∪ fell|.
		st.BitsToggled += bits.OnesCount64(r | f)
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

// SignatureWords sizes the coverage signature: a fixed 4096-bit set so
// signatures from different designs share one space (points are hashed
// by signal name, bit index, and direction — the corpus-guidance trick
// coverage-guided fuzzers use, where rare collisions only cost a
// little guidance, never correctness).
const SignatureWords = 64

// Signature is a fixed-size coverage bitset. The zero value is empty
// and ready to use.
type Signature struct {
	words [SignatureWords]uint64
}

// fnv-1a, inlined so building signatures stays dependency-free.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (s *Signature) addKey(h uint64) {
	bit := h % (SignatureWords * 64)
	s.words[bit/64] |= 1 << (bit % 64)
}

func hashString(h uint64, str string) uint64 {
	for i := 0; i < len(str); i++ {
		h ^= uint64(str[i])
		h *= fnvPrime
	}
	return h
}

func hashUint(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	return h
}

// Count returns the number of set coverage bits.
func (s *Signature) Count() int {
	n := 0
	for _, w := range s.words {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Empty reports whether no coverage point is set.
func (s *Signature) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Union folds o into s and reports whether s gained any new bit — the
// corpus-admission test for coverage-guided fuzzing.
func (s *Signature) Union(o *Signature) bool {
	grew := false
	for i, w := range o.words {
		if w&^s.words[i] != 0 {
			grew = true
		}
		s.words[i] |= w
	}
	return grew
}

// Signature hashes the accumulated coverage into the fixed point space:
// one point per (signal, bit, direction) seen toggling and one per
// process that activated.
func (c *Coverage) Signature() *Signature {
	sig := &Signature{}
	off := 0
	for _, s := range c.signals {
		hname := hashString(fnvOffset, s.Name)
		hr, hf := hashString(hname, "r"), hashString(hname, "f")
		nw := bitvec.WordsFor(s.Width)
		for j := 0; j < nw; j++ {
			for m := c.rose[off+j]; m != 0; m &= m - 1 {
				sig.addKey(hashUint(hr, uint64(64*j+bits.TrailingZeros64(m))))
			}
			for m := c.fell[off+j]; m != 0; m &= m - 1 {
				sig.addKey(hashUint(hf, uint64(64*j+bits.TrailingZeros64(m))))
			}
		}
		off += nw
	}
	for pi, a := range c.procs {
		if a > 0 {
			sig.addKey(hashUint(hashString(fnvOffset, "proc"), uint64(pi)))
		}
	}
	return sig
}
