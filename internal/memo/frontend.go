package memo

// The frontend artifact cache holds the persona-independent part of a
// compile — compiler.FrontendResult: AST, masked design, diagnostics and
// the shared lint slot — once per distinct source for the whole process.
// Every persona's CompileCache renders its log over it on a miss, and
// every SimCache builds its program from it, so a source that Table 1's
// fourteen fixer configurations, the three personas and the simulation
// oracle all compile is parsed and elaborated once, and its analyzer
// findings are computed once.
//
// Artifacts are shared read-only, exactly as cached compile results
// already were: no consumer mutates a Result's Diags, File or Design
// (core.Lint copies the diagnostics before it appends findings).

import "repro/internal/compiler"

// frontendCapacity bounds the artifact cache. Table 1 reuses a source
// within one round of its configurations, about 200 distinct sources, so
// a small FIFO keeps nearly all of the sharing; a larger one only holds
// ASTs that nothing else keeps alive. Measured on perfbench (seed 7,
// 30 s, 2-vCPU Xeon, median of three runs per bound): repair-sweep
// throughput was highest at 1024 entries (30.1k ops/s against the
// parent's 17.4k; 27.0k at 512, 25.3k at 256, 19.2k at 128, 26.3k at
// 4096 and unbounded), and passk-eval's peak RSS stayed at the parent's
// 64.5 MB up to 1024 entries but rose to 80 MB at 4096 and 121 MB
// unbounded, past that metric's 20% regression bound (EXPERIMENTS.md,
// "One frontend per source").
const frontendCapacity = 1024

// frontendCache is a concurrency-safe, sharded, content-addressed cache
// of frontend artifacts on the same core as the other caches.
type frontendCache struct {
	cache[srcKey, text, compiler.Result]
}

func newFrontendCache(capacity int) *frontendCache {
	fc := &frontendCache{}
	fc.init(capacity, &globalFrontend)
	return fc
}

// frontends is the process-wide artifact cache behind every
// CompileCache and SimCache.
var frontends = newFrontendCache(frontendCapacity)

// artifact returns compiler.FrontendResult(src), whose FNV-64a is h,
// parsing it only on a miss.
func (fc *frontendCache) artifact(h uint64, src string) compiler.Result {
	fe, _ := fc.getOrCompute(srcKey(h), text(src), func() compiler.Result {
		return compiler.FrontendResult(src)
	})
	return fe
}
