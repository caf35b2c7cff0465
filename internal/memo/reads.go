package memo

// Reads holds one pure read of a text — a function of a string and
// nothing else — once per distinct text. The agent loop reads the same
// texts over and over: the model inspects every candidate blind
// (llm.BlindHypotheses). Table 1's fourteen configurations, ReAct
// iterations that return the code unchanged, and a server's repeated
// corpus all feed that read texts it has already seen, so it is computed
// once per text and served from the cache core after that. (Guidance
// retrieval over a compile log has its own cache on the same core,
// RetrievalIndex, keyed by strategy and result count as well.) A read is cached only
// when the cache measurably pays: the pre-fixer (fixer.Fix) reads a
// source no rule changes in about half a microsecond without allocating,
// and a cache of it measured no gain on any workload (EXPERIMENTS.md,
// "One read per text"), so it stays uncached.
//
// Values are shared by every caller and must be treated as read-only.
// A read whose value holds a slice returns it with clipped capacity
// (slices.Clip), so a caller's append copies instead of writing into
// the cached backing array.

// Reads is a bounded, concurrency-safe cache of a pure function of a
// text, keyed by the text's FNV-64a on the same core as the other
// caches: the text is compared on every hit (a collision is a miss),
// concurrent misses of one text compute it once, and a full shard
// displaces its oldest entry. Its counters are the "reads" layer of
// TotalsByKind.
type Reads[V any] struct {
	cache[srcKey, text, V]
	read func(string) V
}

// NewReads builds a cache of read holding at least capacity values
// (the sizing rule is cache.init's); capacity <= 0 selects the default.
func NewReads[V any](capacity int, read func(string) V) *Reads[V] {
	r := &Reads[V]{read: read}
	r.init(capacity, &globalReads)
	return r
}

// Get returns read(s), computing it only on a miss.
func (r *Reads[V]) Get(s string) V {
	v, _ := r.getOrCompute(srcKey(HashSource(s)), text(s), func() V { return r.read(s) })
	return v
}
