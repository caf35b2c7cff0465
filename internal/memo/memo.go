// Package memo is the sharded memoization layer in front of the two hot
// paths the evaluation pipeline hammers: compilation (every ReAct
// iteration recompiles, and repeats of the same curated entry recompile
// identical sources) and retrieval (the naive retrievers rescan the whole
// guidance database — rag.Fuzzy even re-shingles every LogExample — per
// call).
//
// The design follows the sharded front-end-buffer / central-aggregator
// pattern of high-throughput DAQ systems (see PAPERS.md): lookup
// structures are precomputed once and sharded by key hash, so the worker
// pool never repeats work and never serializes on a single lock.
//
// Four components:
//
//   - CompileCache — a concurrency-safe, content-addressed cache of
//     compiler.Result keyed by (persona, filename, FNV-64a of source),
//     fronting any compiler.Compiler via Cached.
//   - RetrievalIndex — a precompiled index over one rag.Database: an
//     inverted pattern→entry index serving ExactTag and Keyword, and
//     precomputed shingle sets serving Fuzzy. Wrap adapts it to the
//     rag.Retriever interface.
//   - SimCache (simcache.go) — the same content addressing over the
//     simulation oracle's pipeline: parse + elaborate + sim.Compile,
//     shared by every dataset.Problem.Check so the pass@k loop pays one
//     engine compile per distinct source.
//   - TraceCache (tracecache.go) — each problem reference's recorded
//     outputs under one stimulus, keyed by (reference, stimulus words),
//     so the pass@k loop simulates a reference once per stimulus and
//     every candidate replays against the recording.
//
// CompileCache, SimCache and TraceCache share one cache core (cache.go):
// a sharded map with FIFO displacement, a source-compare collision
// guard, and per-cache counters mirrored into per-layer process totals
// (TotalsByKind). Every cache lives as long as its process.
//
// Correctness contract: every component is transparent. A cached compile
// returns the same Result the wrapped persona would produce (results are
// shared, so callers must treat them as read-only — which every consumer
// already does); an indexed retrieval returns the same entries in the
// same order as the naive scan. Table output is therefore byte-identical
// with the layer on or off, at any worker count.
package memo

import (
	"hash/fnv"
	"sync/atomic"

	"repro/internal/compiler"
)

// Stats is a point-in-time snapshot of memoization counters.
type Stats struct {
	// Hits and Misses count cache lookups.
	Hits   uint64
	Misses uint64
	// Evictions counts cache entries displaced by capacity pressure (or,
	// rarely, by an FNV collision overwrite).
	Evictions uint64
	// Lookups counts retrievals served from a RetrievalIndex.
	Lookups uint64
}

// Add returns the component-wise sum of two snapshots.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Hits:      s.Hits + o.Hits,
		Misses:    s.Misses + o.Misses,
		Evictions: s.Evictions + o.Evictions,
		Lookups:   s.Lookups + o.Lookups,
	}
}

// Sub returns the component-wise difference s - o (for delta reporting
// between two Totals snapshots).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Hits:      s.Hits - o.Hits,
		Misses:    s.Misses - o.Misses,
		Evictions: s.Evictions - o.Evictions,
		Lookups:   s.Lookups - o.Lookups,
	}
}

// counters is the live, atomically-updated form of Stats. Every increment
// is mirrored into the package-global totals so CLIs can report aggregate
// cache behaviour across many fixer instances without threading handles.
type counters struct {
	hits, misses, evictions, lookups atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Lookups:   c.lookups.Load(),
	}
}

// The process-wide totals are kept per cache layer (compile vs sim vs
// retrieval), then summed for the aggregate view.
var (
	globalCompile   counters
	globalSim       counters
	globalTrace     counters
	globalRetrieval counters
)

// Totals returns the process-wide aggregate counters over every
// CompileCache, SimCache, TraceCache and RetrievalIndex ever created. Misses are
// single-flight, so the hit/miss split matches a serial run's as long as
// no entry is displaced.
func Totals() Stats {
	t := TotalsByKind()
	return t.Compile.Add(t.Sim).Add(t.Trace).Add(t.Retrieval)
}

// KindTotals breaks the process-wide counters out per cache layer.
type KindTotals struct {
	// Compile covers every CompileCache (persona compile results).
	Compile Stats
	// Sim covers every SimCache (the simulation oracle's frontend +
	// engine-compile pipeline).
	Sim Stats
	// Trace covers every TraceCache (the simulation oracle's recorded
	// reference responses).
	Trace Stats
	// Retrieval covers every RetrievalIndex (lookups served from the
	// precompiled index).
	Retrieval Stats
}

// TotalsByKind returns the per-layer process-wide counters.
func TotalsByKind() KindTotals {
	return KindTotals{
		Compile:   globalCompile.snapshot(),
		Sim:       globalSim.snapshot(),
		Trace:     globalTrace.snapshot(),
		Retrieval: globalRetrieval.snapshot(),
	}
}

// compileKey is the content address of one compilation.
type compileKey struct {
	persona  string
	filename string
	srcHash  uint64
}

func (k compileKey) shardHash() uint64 { return k.srcHash }

// CompileCache is a concurrency-safe, sharded, content-addressed cache of
// compilation results.
type CompileCache struct {
	cache[compileKey, text, compiler.Result]
}

// NewCompileCache builds a cache holding at least capacity results
// (the sizing rule is cache.init's); capacity <= 0 selects the default.
func NewCompileCache(capacity int) *CompileCache {
	cc := &CompileCache{}
	cc.init(capacity, &globalCompile)
	return cc
}

// HashSource is the content address used by the memoization layer (and
// the server's request-coalescing keys): FNV-64a over the source bytes.
// Collisions are tolerable because every consumer keeps the source
// alongside and compares it before trusting a match.
func HashSource(src string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(src))
	return h.Sum64()
}

// cachedCompiler fronts a compiler.Compiler with a CompileCache.
type cachedCompiler struct {
	inner compiler.Compiler
	cache *CompileCache
}

// Cached wraps a persona so repeated compilations of identical
// (filename, source) pairs are served from cc. The wrapper delegates
// Name and InfoScore, so it is indistinguishable from the wrapped persona
// everywhere but in speed.
func (cc *CompileCache) Cached(c compiler.Compiler) compiler.Compiler {
	return &cachedCompiler{inner: c, cache: cc}
}

// Cached wraps a persona with a fresh default-sized cache — the
// convenience form for callers that do not need to read the counters.
func Cached(c compiler.Compiler) compiler.Compiler {
	return NewCompileCache(0).Cached(c)
}

// Name implements compiler.Compiler.
func (c *cachedCompiler) Name() string { return c.inner.Name() }

// InfoScore implements compiler.Compiler.
func (c *cachedCompiler) InfoScore() float64 { return c.inner.InfoScore() }

// CompileReportingHit compiles like Compile and also reports whether
// the result was served from the cache (a single-flight waiter counts as
// a hit, as in the counters). The tracing layer calls it (via a
// structural interface) to attribute cache hits on compile spans without
// widening compiler.Compiler.
func (c *cachedCompiler) CompileReportingHit(filename, src string) (compiler.Result, bool) {
	key := compileKey{persona: c.inner.Name(), filename: filename, srcHash: HashSource(src)}
	return c.cache.getOrCompute(key, text(src), func() compiler.Result {
		return c.inner.Compile(filename, src)
	})
}

// Compile implements compiler.Compiler.
func (c *cachedCompiler) Compile(filename, src string) compiler.Result {
	res, _ := c.CompileReportingHit(filename, src)
	return res
}
