package memo

import (
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/rag"
)

// benchLog is a representative multi-error Quartus log for retrieval
// benchmarks, produced from the paper's Fig. 5 source.
func benchLog() string {
	return (compiler.Quartus{}).Compile("main.v", brokenSrc).Log
}

// measure times n iterations of f, best of three runs — the minimum is
// robust against scheduler stalls and GC pauses on loaded CI machines.
func measure(n int, f func()) time.Duration {
	best := time.Duration(0)
	for round := 0; round < 3; round++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		d := time.Since(t0)
		if round == 0 || d < best {
			best = d
		}
	}
	return best
}

// BenchmarkCompileCache times repeated compilation of one source through
// the sharded cache and reports the speedup over uncached recompilation —
// the workload shape of Table 1's repeats, where every repeat used to
// recompile the identical curated entry from scratch.
func BenchmarkCompileCache(b *testing.B) {
	persona := compiler.Quartus{}
	cc := NewCompileCache(0)
	cached := cc.Cached(persona)
	cached.Compile("main.v", brokenSrc) // warm: the one real compile
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := cached.Compile("main.v", brokenSrc); res.Ok {
			b.Fatal("broken source compiled")
		}
	}
	b.StopTimer()

	// Measure both paths directly so the benchmark reports the ratio the
	// acceptance gate asks for (>= 2x; in practice orders of magnitude).
	uncached := measure(200, func() { persona.Compile("main.v", brokenSrc) })
	hot := measure(200, func() { cached.Compile("main.v", brokenSrc) })
	if hot > 0 {
		b.ReportMetric(float64(uncached)/float64(hot), "speedup")
	}
}

// TestCompileCacheSpeedup is the acceptance gate in test form: a cache
// hit must be at least 2x faster than recompiling the same source. The
// observed ratio is ~50x, and measure's best-of-three minimum absorbs
// scheduler stalls, so 2x leaves very wide headroom; -short skips the
// timing assertion entirely for constrained environments.
func TestCompileCacheSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped under -short")
	}
	persona := compiler.Quartus{}
	cached := NewCompileCache(0).Cached(persona)
	cached.Compile("main.v", brokenSrc)
	uncached := measure(500, func() { persona.Compile("main.v", brokenSrc) })
	hot := measure(500, func() { cached.Compile("main.v", brokenSrc) })
	if hot*2 > uncached {
		t.Fatalf("cache hit not >= 2x faster: uncached=%v cached=%v", uncached, hot)
	}
}

// BenchmarkRetrievalIndex times each retrieval strategy's scan
// ("naive") against a hit in the index's result cache ("indexed"). The
// fuzzy scan is the slowest: it shingles every LogExample in the
// database per call.
func BenchmarkRetrievalIndex(b *testing.B) {
	db := rag.ForCompiler("Quartus")
	idx := NewRetrievalIndex(db)
	log := benchLog()
	for _, strat := range []rag.Retriever{rag.ExactTag{}, rag.Keyword{}, rag.Fuzzy{}} {
		naive := strat
		indexed := idx.Wrap(strat)
		b.Run(naive.Name()+"/naive", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				naive.Retrieve(db, log, 4)
			}
		})
		b.Run(naive.Name()+"/indexed", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				indexed.Retrieve(db, log, 4)
			}
			b.StopTimer()
			naiveDur := measure(300, func() { naive.Retrieve(db, log, 4) })
			indexedDur := measure(300, func() { indexed.Retrieve(db, log, 4) })
			if indexedDur > 0 {
				b.ReportMetric(float64(naiveDur)/float64(indexedDur), "speedup")
			}
		})
	}
}
