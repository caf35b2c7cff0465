package memo

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/sim"
)

// TestTraceCacheHitsOnEqualStimulus: the same reference and words hit;
// other words, or the same words under another reference, record anew.
func TestTraceCacheHitsOnEqualStimulus(t *testing.T) {
	tc := NewTraceCache(0)
	records := 0
	record := func() *sim.Trace { records++; return &sim.Trace{Cycles: records} }
	a, b := NewTraceRef("ref a"), NewTraceRef("ref b")
	first := tc.Trace(a, []uint64{1, 2, 3}, record)
	if again := tc.Trace(a, []uint64{1, 2, 3}, record); again != first {
		t.Fatal("equal stimulus did not hit")
	}
	tc.Trace(a, []uint64{1, 2, 4}, record)
	tc.Trace(b, []uint64{1, 2, 3}, record)
	if st := tc.Stats(); records != 3 || st.Hits != 1 || st.Misses != 3 {
		t.Fatalf("%d recordings, %+v; want 3 recordings, 1 hit, 3 misses", records, st)
	}
}

// TestTraceCacheCollisionIsMiss forces two stimuli onto one key: the
// stored words are compared, so the second records its own trace (and
// displaces the first), and neither is ever served for the other.
func TestTraceCacheCollisionIsMiss(t *testing.T) {
	tc := NewTraceCache(0)
	key := traceKey{ref: 1, stim: 2}
	first, second := &sim.Trace{Cycles: 1}, &sim.Trace{Cycles: 2}
	got, hit := tc.getOrCompute(key, stimulus{ref: "r", in: []uint64{7}}, func() *sim.Trace { return first })
	if hit || got != first {
		t.Fatal("first lookup must miss and store its trace")
	}
	got, hit = tc.getOrCompute(key, stimulus{ref: "r", in: []uint64{8}}, func() *sim.Trace { return second })
	if hit || got != second {
		t.Fatalf("colliding stimulus served %+v (hit %v), want its own trace", got, hit)
	}
	got, hit = tc.getOrCompute(key, stimulus{ref: "r", in: []uint64{8}}, func() *sim.Trace { return nil })
	if !hit || got != second {
		t.Fatal("the stimulus now stored must hit")
	}
	if st := tc.Stats(); st.Misses != 2 || st.Hits != 1 || st.Evictions != 1 {
		t.Fatalf("stats %+v, want 2 misses, 1 hit, 1 eviction", st)
	}
}

// TestHashWordsIsFNV64a: the stimulus hash is FNV-64a over the words'
// little-endian bytes.
func TestHashWordsIsFNV64a(t *testing.T) {
	for _, in := range [][]uint64{nil, {0}, {1, 1 << 63, 0xdeadbeef}} {
		h := fnv.New64a()
		for _, w := range in {
			h.Write(binary.LittleEndian.AppendUint64(nil, w))
		}
		if got, want := hashWords(in), h.Sum64(); got != want {
			t.Fatalf("hashWords(%v) = %x, want %x", in, got, want)
		}
	}
}

// TestTraceCacheCountsItsOwnLayer: trace lookups count in the Trace
// totals and in no other layer's.
func TestTraceCacheCountsItsOwnLayer(t *testing.T) {
	before := TotalsByKind()
	tc := NewTraceCache(0)
	tc.Trace(NewTraceRef("layer"), []uint64{42}, func() *sim.Trace { return &sim.Trace{} })
	tc.Trace(NewTraceRef("layer"), []uint64{42}, func() *sim.Trace { return &sim.Trace{} })
	after := TotalsByKind()
	if d := after.Trace.Sub(before.Trace); d.Hits != 1 || d.Misses != 1 {
		t.Fatalf("trace layer moved by %+v, want 1 hit and 1 miss", d)
	}
	if after.Sim != before.Sim {
		t.Fatal("trace lookups counted in the sim layer")
	}
}
