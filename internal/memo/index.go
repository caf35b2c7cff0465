package memo

import (
	"slices"

	"repro/internal/rag"
)

// RetrievalIndex caches one rag.Database's retrieval results per
// (strategy, log, k) on the cache core. The agent retrieves on every
// compile log, and Table 1's repeats and a server's corpus produce the
// same logs again and again. A miss runs the strategy's own scan
// (rag.ExactTag, rag.Keyword or rag.Fuzzy) over the database, so a
// cached result is the scan's result by construction. The database is
// immutable, so a result never goes stale. Its counters are the
// "retrieval" layer of TotalsByKind.
type RetrievalIndex struct {
	cache[retrievalKey, retrievalQuery, []rag.Entry]
	db *rag.Database
}

// retrievalCapacity bounds an index's results. Measured on perfbench
// (seed 41, --seconds 8, whole process, 2-vCPU Xeon): serve-mix's pooled
// indexes see 914 distinct exact-tag (log, k) queries in 93,705
// retrievals, which 1024 entries per index hold with no eviction, while
// 256 displace 9,360 and miss 10,186 times; repair-sweep's fresh
// per-configuration indexes need 3,048 misses in all at either bound.
const retrievalCapacity = 1024

// retrievalKey is the content address of one query: the strategy, the
// FNV-64a of the log and the result count.
type retrievalKey struct {
	strategy rag.Retriever
	log      uint64
	k        int
}

func (k retrievalKey) shardHash() uint64 { return k.log }

// retrievalQuery is what a result was computed from, compared on every
// hit: a key collision with a different log is a miss.
type retrievalQuery struct {
	strategy rag.Retriever
	log      string
	k        int
}

func (a retrievalQuery) same(b retrievalQuery) bool { return a == b }

// NewRetrievalIndex builds an empty result cache over db.
func NewRetrievalIndex(db *rag.Database) *RetrievalIndex {
	idx := &RetrievalIndex{db: db}
	idx.init(retrievalCapacity, &globalRetrieval)
	return idx
}

// indexable reports whether a RetrievalIndex can serve a strategy: nil
// (the agent's default, exact-tag) and the built-in scans, which are
// pure functions of (database, log, k) and comparable values, so a
// strategy can be part of a cache key. A custom strategy (such as the
// guidance-size ablation's truncating wrapper) is neither known pure nor
// known comparable.
func indexable(r rag.Retriever) bool {
	switch r.(type) {
	case nil, rag.ExactTag, rag.Keyword, rag.Fuzzy:
		return true
	}
	return false
}

// Wrap returns a retriever that serves inner's strategy from the index.
// nil means the agent's default (exact-tag). Strategies the index cannot
// serve are returned unwrapped.
func (idx *RetrievalIndex) Wrap(inner rag.Retriever) rag.Retriever {
	if !indexable(inner) {
		return inner
	}
	if inner == nil {
		inner = rag.ExactTag{}
	}
	return &cachedRetriever{idx: idx, inner: inner}
}

// cachedRetriever adapts a RetrievalIndex to the rag.Retriever
// interface for one strategy.
type cachedRetriever struct {
	idx   *RetrievalIndex
	inner rag.Retriever
}

// Name implements rag.Retriever.
func (r *cachedRetriever) Name() string { return r.inner.Name() }

// Retrieve implements rag.Retriever. A query against a database other
// than the index's runs the scan uncached (a foreign db means the caller
// substituted entries, as the ablations do). The result is shared by
// every caller with the same query; its capacity is clipped, so an
// append copies it.
func (r *cachedRetriever) Retrieve(db *rag.Database, log string, k int) []rag.Entry {
	if db != r.idx.db {
		return r.inner.Retrieve(db, log, k)
	}
	key := retrievalKey{strategy: r.inner, log: HashSource(log), k: k}
	hits, _ := r.idx.getOrCompute(key, retrievalQuery{strategy: r.inner, log: log, k: k}, func() []rag.Entry {
		return slices.Clip(r.inner.Retrieve(db, log, k))
	})
	return hits
}
