// Package memo is the sharded memoization layer in front of the hot
// paths the evaluation pipeline hammers: compilation (every ReAct
// iteration recompiles, and repeats of the same curated entry recompile
// identical sources), simulation, and the agent's reads of the texts it
// sees again (the model's blind inspection, guidance retrieval).
//
// The design follows the sharded front-end-buffer / central-aggregator
// pattern of high-throughput DAQ systems (see PAPERS.md): results are
// computed once and sharded by key hash, so the worker pool never
// repeats work and never serializes on a single lock.
//
// Six components:
//
//   - The frontend artifact cache (frontend.go) — one process-wide,
//     bounded cache of compiler.FrontendResult per distinct source: the
//     AST, masked design, diagnostics and analyzer findings every
//     persona and the simulation oracle share, so a source is parsed and
//     elaborated once per process.
//   - CompileCache — a concurrency-safe, content-addressed cache of
//     compiler.Result keyed by (persona, filename, FNV-64a of source),
//     fronting any compiler.Compiler via Cached. A built-in persona's
//     miss renders only its log over the shared frontend artifact.
//   - RetrievalIndex (index.go) — a cache of one rag.Database's
//     retrieval results per (strategy, log, k); a miss runs the
//     strategy's own rag scan. Wrap adapts it to the rag.Retriever
//     interface.
//   - SimCache (simcache.go) — the same content addressing over the
//     simulation oracle's pipeline: the frontend artifact + sim.Compile,
//     shared by every dataset.Problem.Check so the pass@k loop pays one
//     engine compile per distinct source.
//   - TraceCache (tracecache.go) — each problem reference's recorded
//     outputs under one stimulus, keyed by (reference, stimulus words),
//     so the pass@k loop simulates a reference once per stimulus and
//     every candidate replays against the recording.
//   - Reads (reads.go) — a bounded cache of one pure function of a text,
//     so a text the agent loop reads again is read once per process: the
//     model's blind inspection (llm.BlindHypotheses) is a process-wide
//     instance.
//
// All six share one cache core (cache.go): a sharded map with FIFO
// displacement, a source-compare collision guard, and per-cache
// counters mirrored into per-layer process totals (TotalsByKind). Every
// cache lives as long as its process.
//
// Correctness contract: every component is transparent. A cached compile
// returns the same Result the wrapped persona would produce; a cached
// read returns the same value its uncached function
// (llm.BlindHypotheses) computes for the text; a cached retrieval
// returns the same entries in the same order as the strategy's scan.
// Cached values are shared, so callers must treat them as read-only —
// which every consumer already does — and a cached slice has clipped
// capacity, so a caller's append copies it. Table output is therefore
// byte-identical with the layer on or off, at any worker count.
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
}

// Add returns the component-wise sum of two snapshots.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Hits:      s.Hits + o.Hits,
		Misses:    s.Misses + o.Misses,
		Evictions: s.Evictions + o.Evictions,
	}
}

// Sub returns the component-wise difference s - o (for delta reporting
// between two Totals snapshots).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Hits:      s.Hits - o.Hits,
		Misses:    s.Misses - o.Misses,
		Evictions: s.Evictions - o.Evictions,
	}
}

// counters is the live, atomically-updated form of Stats. Every increment
// is mirrored into the package-global totals so CLIs can report aggregate
// cache behaviour across many fixer instances without threading handles.
type counters struct {
	hits, misses, evictions atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}

// The process-wide totals are kept per cache layer (frontend vs compile
// vs sim vs trace vs retrieval vs reads), then summed for the aggregate
// view.
var (
	globalFrontend  counters
	globalCompile   counters
	globalSim       counters
	globalTrace     counters
	globalRetrieval counters
	globalReads     counters
)

// Totals returns the process-wide aggregate counters over the frontend
// artifact cache and every CompileCache, SimCache, TraceCache,
// RetrievalIndex and Reads ever created. Misses are single-flight, so
// the hit/miss split matches a serial run's as long as no entry is
// displaced.
func Totals() Stats {
	t := TotalsByKind()
	return t.Frontend.Add(t.Compile).Add(t.Sim).Add(t.Trace).Add(t.Retrieval).Add(t.Reads)
}

// KindTotals breaks the process-wide counters out per cache layer.
type KindTotals struct {
	// Frontend covers the process-wide frontend artifact cache (one
	// parse + elaborate per distinct source, shared by every persona
	// and the simulation oracle).
	Frontend Stats
	// Compile covers every CompileCache (persona compile results).
	Compile Stats
	// Sim covers every SimCache (the simulation oracle's frontend +
	// engine-compile pipeline).
	Sim Stats
	// Trace covers every TraceCache (the simulation oracle's recorded
	// reference responses).
	Trace Stats
	// Retrieval covers every RetrievalIndex (guidance retrieval
	// results).
	Retrieval Stats
	// Reads covers every Reads (the model's blind inspection).
	Reads Stats
}

// TotalsByKind returns the per-layer process-wide counters.
func TotalsByKind() KindTotals {
	return KindTotals{
		Frontend:  globalFrontend.snapshot(),
		Compile:   globalCompile.snapshot(),
		Sim:       globalSim.snapshot(),
		Trace:     globalTrace.snapshot(),
		Retrieval: globalRetrieval.snapshot(),
		Reads:     globalReads.snapshot(),
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
	// render is the built-in persona's Render step (compiler.RenderStep);
	// nil for any other Compiler, whose misses call its own Compile.
	render func(filename string, fe compiler.Result) compiler.Result
	cache  *CompileCache
}

// Cached wraps a persona so repeated compilations of identical
// (filename, source) pairs are served from cc. A miss of a built-in
// persona renders its log over the process-wide frontend artifact, so
// the source is parsed at most once across every persona and cache. The
// wrapper delegates Name and InfoScore, so it is indistinguishable from
// the wrapped persona everywhere but in speed.
func (cc *CompileCache) Cached(c compiler.Compiler) compiler.Compiler {
	return &cachedCompiler{inner: c, render: compiler.RenderStep(c), cache: cc}
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
		if c.render == nil {
			return c.inner.Compile(filename, src)
		}
		return c.render(filename, frontends.artifact(key.srcHash, src))
	})
}

// Compile implements compiler.Compiler.
func (c *cachedCompiler) Compile(filename, src string) compiler.Result {
	res, _ := c.CompileReportingHit(filename, src)
	return res
}
