package memo

import "sync"

// Default sizing. 64 shards keeps lock contention negligible for any
// plausible worker count; 16384 entries comfortably hold a full Table 1
// run's distinct (source, persona) population.
const (
	defaultShards   = 64
	defaultCapacity = 16384
)

// shardKey is a cache key that names its shard: the FNV-64a of the
// source it addresses.
type shardKey interface {
	comparable
	shardHash() uint64
}

// source is what a cached value was computed from. The cache keeps it
// beside the value and compares it on every hit, so an FNV-64 collision
// degrades to a miss instead of serving a wrong value.
type source[S any] interface {
	same(S) bool
}

// text is the source of the artifact, compile and sim caches (Verilog
// source) and of Reads (any text).
type text string

func (a text) same(b text) bool { return a == b }

// srcKey is the content address of one Verilog source, the FNV-64a of
// its text: the key of the frontend artifact, sim and Reads caches.
type srcKey uint64

func (k srcKey) shardHash() uint64 { return uint64(k) }

// entry retains the source alongside the value.
type entry[S, V any] struct {
	src S
	val V
}

// shard is one lock domain of a cache: a bounded map with FIFO
// displacement (deterministic, no clock reads), plus the computations in
// flight for keys that missed.
type shard[K comparable, S, V any] struct {
	mu       sync.Mutex
	entries  map[K]entry[S, V]
	order    []K
	inflight map[K]*flight[S, V]
}

// flight is one computation that concurrent misses on its key wait for.
// val and ok are written before done is released and read only after.
type flight[S, V any] struct {
	src  S
	done sync.WaitGroup
	val  V
	ok   bool // false when the computation panicked
}

// cache is the one content-addressed cache core under the frontend
// artifacts, CompileCache, SimCache, TraceCache, Reads and the exact-tag
// results: a sharded map, FIFO displacement at capacity,
// the source-compare collision guard, and hit/miss/eviction counters
// mirrored into the process-wide totals of the cache's layer.
type cache[K shardKey, S source[S], V any] struct {
	shards      []shard[K, S, V]
	capPerShard int
	c           counters
	global      *counters
}

// init sizes the cache to hold at least capacity values across all
// shards; capacity <= 0 selects the default (16384). The bound is
// rounded up to shard granularity (shards × ceil(capacity / shards),
// never more than 2x the request), so a caller bounding memory never
// gets avoidable evictions below its requested capacity.
func (c *cache[K, S, V]) init(capacity int, global *counters) {
	if capacity <= 0 {
		capacity = defaultCapacity
	}
	shards := defaultShards
	if capacity < shards {
		shards = capacity // one entry per shard: the bound is exact
	}
	// A shard makes its maps on its first write (reading a nil map is
	// a miss), so an empty cache costs one allocation: every fixer and
	// retrieval index builds caches at set-up.
	c.shards = make([]shard[K, S, V], shards)
	c.capPerShard = (capacity + shards - 1) / shards
	c.global = global
}

// Stats snapshots this cache's counters.
func (c *cache[K, S, V]) Stats() Stats { return c.c.snapshot() }

// Len returns the number of cached values (for tests and sizing checks).
func (c *cache[K, S, V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

func (c *cache[K, S, V]) shardFor(k K) *shard[K, S, V] {
	return &c.shards[k.shardHash()%uint64(len(c.shards))]
}

// getOrCompute returns the value cached under (k, src), computing and
// storing it on a miss, and reports whether the lookup counted as a hit.
// Misses are single-flight: while one caller
// computes a source, concurrent callers for the same source wait for its
// value and count as hits, exactly as they would had they arrived after
// it, so the miss count does not depend on the worker count. A
// computation that panics releases its waiters, which then retry (one of
// them computing in its place); the panic propagates to its own caller.
// A caller whose source collides with the one in flight waits for that
// flight, then computes its own. compute runs without the shard lock
// held and must not look up k in this cache.
func (c *cache[K, S, V]) getOrCompute(k K, src S, compute func() V) (V, bool) {
	s := c.shardFor(k)
	for {
		s.mu.Lock()
		if e, ok := s.entries[k]; ok && e.src.same(src) {
			s.mu.Unlock()
			c.hit()
			return e.val, true
		}
		if f, busy := s.inflight[k]; busy {
			s.mu.Unlock()
			f.done.Wait()
			if f.ok && f.src.same(src) {
				c.hit()
				return f.val, true
			}
			// The flight panicked, or computed a different source under
			// k (an FNV collision): look again.
			continue
		}
		f := &flight[S, V]{src: src}
		f.done.Add(1)
		if s.inflight == nil {
			s.inflight = make(map[K]*flight[S, V])
		}
		s.inflight[k] = f
		s.mu.Unlock()
		c.miss()
		return c.lead(s, k, f, compute), false
	}
}

// lead runs the computation for flight f, stores its value, and then —
// on every path, a panic included — retires f and releases its waiters.
func (c *cache[K, S, V]) lead(s *shard[K, S, V], k K, f *flight[S, V], compute func() V) V {
	defer func() {
		s.mu.Lock()
		delete(s.inflight, k)
		s.mu.Unlock()
		f.done.Done()
	}()
	f.val = c.put(k, f.src, compute())
	f.ok = true
	return f.val
}

func (c *cache[K, S, V]) hit() {
	c.c.hits.Add(1)
	c.global.hits.Add(1)
}

func (c *cache[K, S, V]) miss() {
	c.c.misses.Add(1)
	c.global.misses.Add(1)
}

// put stores v under k and returns the value the cache now holds. Should
// the source already be cached, the first value stays, so every caller
// shares one copy. A different source at k (an FNV
// collision) is overwritten and counted as an eviction; a full shard
// displaces its oldest entry (FIFO: deterministic and cheap, a displaced
// entry is simply recomputed on its next miss).
func (c *cache[K, S, V]) put(k K, src S, v V) V {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[k]; ok {
		if old.src.same(src) {
			return old.val
		}
		c.evicted()
		s.entries[k] = entry[S, V]{src: src, val: v}
		return v
	}
	if s.entries == nil {
		s.entries = make(map[K]entry[S, V])
	}
	for len(s.entries) >= c.capPerShard && len(s.order) > 0 {
		oldest := s.order[0]
		s.order = s.order[1:]
		if _, ok := s.entries[oldest]; ok {
			delete(s.entries, oldest)
			c.evicted()
		}
	}
	s.entries[k] = entry[S, V]{src: src, val: v}
	s.order = append(s.order, k)
	return v
}

func (c *cache[K, S, V]) evicted() {
	c.c.evictions.Add(1)
	c.global.evictions.Add(1)
}
