package memo

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/rag"
)

// RetrievalIndex is a precompiled view of one rag.Database, built once
// (core.New time) and shared read-only by every worker:
//
//   - an inverted pattern→entries index: each distinct pattern string is
//     tested against the log once instead of once per entry holding it
//     (the curated DBs reuse tags like "Error (10161)" heavily);
//   - an inverted word→entries index with per-entry multiplicities for
//     the keyword retriever;
//   - precomputed shingle sets per entry LogExample for the fuzzy
//     retriever, which otherwise re-shingles the whole database per call.
//
// All three indexed paths reproduce the naive scans' results exactly,
// including tie order (scores are accumulated in entry order and ranked
// through the same rag.SelectByScore / stable-sort tail).
type RetrievalIndex struct {
	db      *rag.Database
	entries []rag.Entry

	patterns []patternPosting
	words    []wordPosting

	// shingles caches per-entry LogExample shingle sets by shingle size.
	// The default size is built eagerly; other sizes (a caller using
	// rag.Fuzzy{ShingleK: 5}) are built once on demand.
	mu       sync.RWMutex
	shingles map[int][]map[string]struct{}

	c counters
}

// patternPosting maps one distinct non-empty pattern string to the
// entries whose Patterns contain it.
type patternPosting struct {
	pat     string
	entries []int
}

// wordPosting maps one distinct lowercased word (length >= 4, as the
// keyword retriever requires) to the entries whose patterns contain it,
// with the per-entry occurrence count — the naive scan counts duplicate
// words once per occurrence, so multiplicity matters for score parity.
type wordPosting struct {
	word  string
	posts []wordPost
}

type wordPost struct {
	entry int
	count int
}

// NewRetrievalIndex precompiles the index for db.
func NewRetrievalIndex(db *rag.Database) *RetrievalIndex {
	entries := db.Entries()
	idx := &RetrievalIndex{
		db:       db,
		entries:  entries,
		shingles: map[int][]map[string]struct{}{},
	}

	patTo := map[string][]int{}
	wordTo := map[string]map[int]int{}
	var patOrder, wordOrder []string
	for i, e := range entries {
		seenPat := map[string]bool{}
		for _, p := range e.Patterns {
			if p == "" {
				continue
			}
			if !seenPat[p] {
				seenPat[p] = true
				if _, ok := patTo[p]; !ok {
					patOrder = append(patOrder, p)
				}
				patTo[p] = append(patTo[p], i)
			}
			for _, w := range strings.Fields(strings.ToLower(p)) {
				if len(w) < 4 {
					continue
				}
				if _, ok := wordTo[w]; !ok {
					wordTo[w] = map[int]int{}
					wordOrder = append(wordOrder, w)
				}
				wordTo[w][i]++
			}
		}
	}
	for _, p := range patOrder {
		idx.patterns = append(idx.patterns, patternPosting{pat: p, entries: patTo[p]})
	}
	for _, w := range wordOrder {
		posts := make([]wordPost, 0, len(wordTo[w]))
		for e, n := range wordTo[w] {
			posts = append(posts, wordPost{entry: e, count: n})
		}
		sort.Slice(posts, func(i, j int) bool { return posts[i].entry < posts[j].entry })
		idx.words = append(idx.words, wordPosting{word: w, posts: posts})
	}

	defaultK, _ := rag.Fuzzy{}.Params()
	idx.shingles[defaultK] = shingleEntries(entries, defaultK)
	return idx
}

func shingleEntries(entries []rag.Entry, k int) []map[string]struct{} {
	sets := make([]map[string]struct{}, len(entries))
	for i, e := range entries {
		sets[i] = cluster.Shingles(e.LogExample, k)
	}
	return sets
}

// Database returns the database the index was built over.
func (idx *RetrievalIndex) Database() *rag.Database { return idx.db }

// Stats snapshots the index's lookup counter.
func (idx *RetrievalIndex) Stats() Stats { return idx.c.snapshot() }

// entryShingles returns the precomputed shingle sets for size k, building
// and caching them on first use of a non-default size.
func (idx *RetrievalIndex) entryShingles(k int) []map[string]struct{} {
	idx.mu.RLock()
	sets, ok := idx.shingles[k]
	idx.mu.RUnlock()
	if ok {
		return sets
	}
	idx.mu.Lock()
	defer idx.mu.Unlock()
	if sets, ok = idx.shingles[k]; ok {
		return sets
	}
	sets = shingleEntries(idx.entries, k)
	idx.shingles[k] = sets
	return sets
}

// exactTag serves rag.ExactTag's semantics from the inverted index: each
// distinct pattern is substring-tested once, the per-entry best (longest
// matching pattern) accumulated, then ranked through the shared
// SelectByScore tail. Hits are collected in entry order, so stable-sort
// ties break identically to the naive scan.
func (idx *RetrievalIndex) exactTag(log string, k int) []rag.Entry {
	best := make([]int, len(idx.entries))
	for _, pp := range idx.patterns {
		if !strings.Contains(log, pp.pat) {
			continue
		}
		n := len(pp.pat)
		for _, e := range pp.entries {
			if n > best[e] {
				best[e] = n
			}
		}
	}
	var hits []rag.ScoredEntry
	for i, b := range best {
		if b > 0 {
			hits = append(hits, rag.ScoredEntry{Entry: idx.entries[i], Score: b})
		}
	}
	return rag.SelectByScore(hits, k)
}

// keyword serves rag.Keyword's semantics: each distinct qualifying word
// is substring-tested once against the lowercased log, scores accumulate
// with the naive scan's per-occurrence multiplicity.
func (idx *RetrievalIndex) keyword(log string, k int) []rag.Entry {
	lower := strings.ToLower(log)
	score := make([]int, len(idx.entries))
	for _, wp := range idx.words {
		if !strings.Contains(lower, wp.word) {
			continue
		}
		for _, p := range wp.posts {
			score[p.entry] += p.count
		}
	}
	var hits []rag.ScoredEntry
	for i, s := range score {
		if s > 0 {
			hits = append(hits, rag.ScoredEntry{Entry: idx.entries[i], Score: s})
		}
	}
	return rag.SelectByScore(hits, k)
}

// fuzzy serves rag.Fuzzy's semantics from the precomputed shingle sets:
// only the query log is shingled per call.
func (idx *RetrievalIndex) fuzzy(f rag.Fuzzy, log string, k int) []rag.Entry {
	shingleK, minSim := f.Params()
	logSet := cluster.Shingles(log, shingleK)
	sets := idx.entryShingles(shingleK)
	type scored struct {
		entry int
		sim   float64
	}
	var hits []scored
	for i := range idx.entries {
		sim := cluster.Jaccard(logSet, sets[i])
		if sim >= minSim {
			hits = append(hits, scored{i, sim})
		}
	}
	sort.SliceStable(hits, func(i, j int) bool { return hits[i].sim > hits[j].sim })
	var out []rag.Entry
	for _, h := range hits {
		if len(out) >= k {
			break
		}
		out = append(out, idx.entries[h.entry])
	}
	return out
}

// indexedRetriever adapts a RetrievalIndex to the rag.Retriever
// interface, serving the wrapped strategy's queries from the index.
type indexedRetriever struct {
	idx   *RetrievalIndex
	inner rag.Retriever
}

// Indexable reports whether a RetrievalIndex can serve a strategy. nil
// means the agent's default (exact-tag), which is indexable. Callers can
// check before paying for NewRetrievalIndex: a custom strategy (such as
// the guidance-size ablation's truncating wrapper) would make the index
// dead weight.
func Indexable(r rag.Retriever) bool {
	switch r.(type) {
	case nil, rag.ExactTag, rag.Keyword, rag.Fuzzy:
		return true
	}
	return false
}

// Wrap returns a retriever that serves inner's strategy from the index.
// nil means the agent's default (exact-tag). Strategies the index cannot
// reproduce are returned unwrapped — correctness over speed.
func (idx *RetrievalIndex) Wrap(inner rag.Retriever) rag.Retriever {
	if inner == nil {
		inner = rag.ExactTag{}
	}
	if !Indexable(inner) {
		return inner
	}
	return &indexedRetriever{idx: idx, inner: inner}
}

// Name implements rag.Retriever.
func (r *indexedRetriever) Name() string { return r.inner.Name() }

// Retrieve implements rag.Retriever. A query against a database other
// than the one the index was built over falls back to the naive scan (a
// foreign db means the caller substituted entries, as the ablations do).
// So does a query against the indexed database after it has grown via
// Add — the index is a construction-time snapshot, and serving it then
// would break the indexed-equals-naive contract.
func (r *indexedRetriever) Retrieve(db *rag.Database, log string, k int) []rag.Entry {
	if db != r.idx.db || db.Len() != len(r.idx.entries) {
		return r.inner.Retrieve(db, log, k)
	}
	r.idx.c.lookups.Add(1)
	globalRetrieval.lookups.Add(1)
	switch in := r.inner.(type) {
	case rag.ExactTag:
		return r.idx.exactTag(log, k)
	case rag.Keyword:
		return r.idx.keyword(log, k)
	case rag.Fuzzy:
		return r.idx.fuzzy(in, log, k)
	}
	return r.inner.Retrieve(db, log, k)
}
