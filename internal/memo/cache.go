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

// entry retains the source alongside the value so an FNV-64 collision
// degrades to a miss instead of serving a wrong value.
type entry[V any] struct {
	src string
	val V
}

// shard is one lock domain of a cache: a bounded map with FIFO
// displacement (deterministic, no clock reads).
type shard[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]entry[V]
	order   []K
}

// cache is the one content-addressed cache core under CompileCache and
// SimCache: a sharded map, FIFO displacement at capacity, the
// source-compare collision guard, and hit/miss/eviction counters
// mirrored into the process-wide totals of the cache's layer.
type cache[K shardKey, V any] struct {
	shards      []shard[K, V]
	capPerShard int
	c           counters
	global      *counters
}

// init sizes the cache to hold at least capacity values across all
// shards; capacity <= 0 selects the default (16384). The bound is
// rounded up to shard granularity (shards × ceil(capacity / shards),
// never more than 2x the request), so a caller bounding memory never
// gets avoidable evictions below its requested capacity.
func (c *cache[K, V]) init(capacity int, global *counters) {
	if capacity <= 0 {
		capacity = defaultCapacity
	}
	shards := defaultShards
	if capacity < shards {
		shards = capacity // one entry per shard: the bound is exact
	}
	c.shards = make([]shard[K, V], shards)
	c.capPerShard = (capacity + shards - 1) / shards
	c.global = global
	for i := range c.shards {
		c.shards[i].entries = make(map[K]entry[V])
	}
}

// Stats snapshots this cache's counters.
func (c *cache[K, V]) Stats() Stats { return c.c.snapshot() }

// Len returns the number of cached values (for tests and sizing checks).
func (c *cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

func (c *cache[K, V]) shardFor(k K) *shard[K, V] {
	return &c.shards[k.shardHash()%uint64(len(c.shards))]
}

// peek returns the value cached under k when the stored source matches
// src (the collision guard). A present entry counts as a hit; an absent
// one counts nothing, so a caller probing before a full lookup leaves
// the statistics identical to an unprobed lookup.
func (c *cache[K, V]) peek(k K, src string) (V, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.entries[k]
	s.mu.Unlock()
	if ok && e.src == src {
		c.c.hits.Add(1)
		c.global.hits.Add(1)
		return e.val, true
	}
	var zero V
	return zero, false
}

// get is peek with miss accounting.
func (c *cache[K, V]) get(k K, src string) (V, bool) {
	v, ok := c.peek(k, src)
	if !ok {
		c.c.misses.Add(1)
		c.global.misses.Add(1)
	}
	return v, ok
}

// put stores v under k and returns the value the cache now holds. When
// racing workers computed the same source, the first value stays, so
// every caller shares one copy. A different source at k (an FNV
// collision) is overwritten and counted as an eviction; a full shard
// displaces its oldest entry (FIFO: deterministic and cheap, a displaced
// entry is simply recomputed on its next miss).
func (c *cache[K, V]) put(k K, src string, v V) V {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[k]; ok {
		if old.src == src {
			return old.val
		}
		c.evicted()
		s.entries[k] = entry[V]{src: src, val: v}
		return v
	}
	for len(s.entries) >= c.capPerShard && len(s.order) > 0 {
		oldest := s.order[0]
		s.order = s.order[1:]
		if _, ok := s.entries[oldest]; ok {
			delete(s.entries, oldest)
			c.evicted()
		}
	}
	s.entries[k] = entry[V]{src: src, val: v}
	s.order = append(s.order, k)
	return v
}

func (c *cache[K, V]) evicted() {
	c.c.evictions.Add(1)
	c.global.evictions.Add(1)
}
