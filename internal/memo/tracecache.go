package memo

// TraceCache holds the functional oracle's reference traces: what a
// problem's reference RTL outputs, cycle by cycle, under one stimulus.
// Every sample of a problem that a Table 2 or perfbench pass scores is
// driven with the same stimulus, so the reference is simulated once per
// (reference, stimulus) and each candidate only replays against the
// recording. Traces are flat word slices (sim.Trace) and the cache is
// bounded, so holding them costs little memory.

import (
	"slices"

	"repro/internal/sim"
)

// traceKey is the content address of one trace: the FNV-64a of the
// reference's identity and of the stimulus words.
type traceKey struct{ ref, stim uint64 }

func (k traceKey) shardHash() uint64 { return k.ref ^ k.stim }

// stimulus is what a trace was recorded from, compared exactly on every
// hit: a key collision with different words is a miss.
type stimulus struct {
	ref string
	in  []uint64
}

func (a stimulus) same(b stimulus) bool { return a.ref == b.ref && slices.Equal(a.in, b.in) }

// TraceRef names a reference to the trace cache: its identity (whatever
// determines its response to a stimulus) and the identity's hash,
// computed once.
type TraceRef struct {
	id   string
	hash uint64
}

// NewTraceRef builds the TraceRef of a reference identity.
func NewTraceRef(id string) TraceRef { return TraceRef{id: id, hash: HashSource(id)} }

// TraceCache is a concurrency-safe, sharded cache of reference traces
// keyed by (reference, stimulus), on the same core as the compile and
// sim caches.
type TraceCache struct {
	cache[traceKey, stimulus, *sim.Trace]
}

// NewTraceCache builds a cache holding at least capacity traces;
// capacity <= 0 selects the default.
func NewTraceCache(capacity int) *TraceCache {
	tc := &TraceCache{}
	tc.init(capacity, &globalTrace)
	return tc
}

// Trace returns the trace of ref under the stimulus words in, calling
// record on a miss. The cache keeps in as the trace's key: the caller
// must not change it afterwards. Concurrent misses on one stimulus
// record it once.
func (tc *TraceCache) Trace(ref TraceRef, in []uint64, record func() *sim.Trace) *sim.Trace {
	t, _ := tc.getOrCompute(traceKey{ref: ref.hash, stim: hashWords(in)}, stimulus{ref: ref.id, in: in}, record)
	return t
}

// hashWords is FNV-64a over the words' little-endian bytes.
func hashWords(in []uint64) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, w := range in {
		for b := 0; b < 64; b += 8 {
			h ^= w >> b & 0xff
			h *= prime
		}
	}
	return h
}
