package memo

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/rag"
)

const cleanSrc = `module m(input a, output y);
	assign y = ~a;
endmodule
`

const brokenSrc = `module top_module (
	input [99:0] in,
	output reg [99:0] out
);
	always @(posedge clk) begin
		for (int i = 0; i < 100; i = i + 1) begin
			out[i] <= in[99 - i];
		end
	end
endmodule
`

// sampleLogs compiles a spread of sources through both log-producing
// personas so retrieval equivalence is checked against realistic logs.
func sampleLogs(t testing.TB) []string {
	t.Helper()
	srcs := []string{
		brokenSrc,
		"module m(input a, output y);\n\tassign y = b;\nendmodule\n",
		"module m(input a, output reg y);\n\talways @(posedge clk)\n\t\ty <= a\nendmodule\n",
		"module m(input [3:0] a, output y);\n\tassign y = a[7];\nendmodule\n",
		"module m(input a, output y)\n\tassign y = a;\nendmodule\n",
		cleanSrc,
	}
	var logs []string
	for _, persona := range compiler.All() {
		for _, src := range srcs {
			logs = append(logs, persona.Compile("main.v", src).Log)
		}
	}
	logs = append(logs, "", "unrelated text with no tags at all")
	return logs
}

// TestCachedCompilerTransparent is the compile cache's correctness gate:
// the wrapper must return results deep-equal to the bare persona's, and
// repeated compiles must hit.
func TestCachedCompilerTransparent(t *testing.T) {
	for _, persona := range compiler.All() {
		cc := NewCompileCache(0)
		cached := cc.Cached(persona)
		if cached.Name() != persona.Name() || cached.InfoScore() != persona.InfoScore() {
			t.Fatalf("%s: wrapper changes identity", persona.Name())
		}
		for _, src := range []string{cleanSrc, brokenSrc} {
			want := persona.Compile("main.v", src)
			got1 := cached.Compile("main.v", src)
			got2 := cached.Compile("main.v", src)
			if !reflect.DeepEqual(want.Log, got1.Log) || want.Ok != got1.Ok ||
				!reflect.DeepEqual(want.Diags, got1.Diags) {
				t.Fatalf("%s: cached result differs from direct compile", persona.Name())
			}
			if !reflect.DeepEqual(got1, got2) {
				t.Fatalf("%s: second lookup differs from first", persona.Name())
			}
		}
		s := cc.Stats()
		if s.Hits != 2 || s.Misses != 2 {
			t.Fatalf("%s: stats = %+v, want 2 hits / 2 misses", persona.Name(), s)
		}
	}
}

// TestCompileCacheKeysOnFilenameAndPersona pins the content address:
// same source under a different filename or persona is a distinct entry.
func TestCompileCacheKeysOnFilenameAndPersona(t *testing.T) {
	cc := NewCompileCache(0)
	q := cc.Cached(compiler.Quartus{})
	q.Compile("a.v", brokenSrc)
	q.Compile("b.v", brokenSrc)
	cc.Cached(compiler.IVerilog{}).Compile("a.v", brokenSrc)
	if got := cc.Len(); got != 3 {
		t.Fatalf("cache holds %d entries, want 3", got)
	}
	if s := cc.Stats(); s.Hits != 0 || s.Misses != 3 {
		t.Fatalf("stats = %+v, want 0 hits / 3 misses", s)
	}
}

// TestCompileCacheEviction fills a tiny cache past capacity and checks
// the FIFO displacement keeps it bounded while counting evictions.
func TestCompileCacheEviction(t *testing.T) {
	// Capacity below the shard count shrinks the shard array, so the
	// bound is exact: one single-entry shard here.
	cc := NewCompileCache(1)
	cached := cc.Cached(compiler.Simple{})
	const n = 200
	for i := 0; i < n; i++ {
		src := fmt.Sprintf("module m%d(); endmodule\n", i)
		cached.Compile("main.v", src)
		cached.Compile("main.v", src) // immediate re-use must still hit
	}
	if got := cc.Len(); got > 1 {
		t.Fatalf("cache grew to %d entries, cap is 1", got)
	}
	s := cc.Stats()
	if s.Evictions == 0 {
		t.Fatal("no evictions recorded despite capacity pressure")
	}
	if s.Hits != n {
		t.Fatalf("immediate re-use hits = %d, want %d", s.Hits, n)
	}
}

// TestCompileCacheCapacityBounds pins NewCompileCache's sizing contract:
// the effective bound is at least the requested capacity and never more
// than double it.
func TestCompileCacheCapacityBounds(t *testing.T) {
	for _, capacity := range []int{1, 10, 63, 64, 100, 1000} {
		cc := NewCompileCache(capacity)
		effective := len(cc.shards) * cc.capPerShard
		if effective < capacity || effective > 2*capacity {
			t.Errorf("capacity %d: effective bound %d outside [cap, 2*cap]", capacity, effective)
		}
		// Fill well past capacity and confirm Len respects the bound.
		cached := cc.Cached(compiler.Simple{})
		for i := 0; i < 3*capacity+10; i++ {
			cached.Compile("main.v", fmt.Sprintf("module c%d(); endmodule\n", i))
		}
		if got := cc.Len(); got > effective {
			t.Errorf("capacity %d: cache holds %d entries, bound %d", capacity, got, effective)
		}
	}
}

// TestCompileCacheCollisionGuard white-boxes the FNV collision path: a
// stored entry whose source does not match must read as a miss, and the
// overwrite must not serve the stale result afterwards.
func TestCompileCacheCollisionGuard(t *testing.T) {
	cc := NewCompileCache(0)
	key := compileKey{persona: "Quartus", filename: "main.v", srcHash: 42}
	resA := compiler.Result{Ok: true, Log: "A"}
	cc.put(key, "source-a", resA)
	resB := compiler.Result{Ok: false, Log: "B"}
	got, hit := cc.getOrCompute(key, "source-b", func() compiler.Result { return resB })
	if hit || got.Log != "B" {
		t.Fatalf("colliding lookup: hit=%v log=%q, want a miss recomputing B", hit, got.Log)
	}
	got, hit = cc.getOrCompute(key, "source-b", func() compiler.Result {
		t.Error("overwritten entry recomputed")
		return compiler.Result{}
	})
	if !hit || got.Log != "B" {
		t.Fatalf("overwritten entry not served: hit=%v log=%q", hit, got.Log)
	}
	if s := cc.Stats(); s.Evictions != 1 || s.Misses != 1 {
		t.Fatalf("collision should count one miss and one eviction, got %+v", s)
	}
}

// TestCompileCacheConcurrent hammers one cache from many goroutines (run
// under -race in CI) and checks every returned result is correct.
func TestCompileCacheConcurrent(t *testing.T) {
	cc := NewCompileCache(64)
	cached := cc.Cached(compiler.Quartus{})
	want := compiler.Quartus{}.Compile("main.v", brokenSrc)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				src := fmt.Sprintf("module w%d(); endmodule\n", (g*50+i)%40)
				if res := cached.Compile("main.v", src); !res.Ok {
					t.Errorf("clean module rejected: %s", res.Log)
					return
				}
				if res := cached.Compile("main.v", brokenSrc); res.Ok || res.Log != want.Log {
					t.Error("concurrent cached result diverged")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestIndexedRetrievalEquivalence is the retrieval index's correctness
// gate: for both curated databases, one index serves every strategy,
// interleaved query by query, over a spread of real compiler logs and
// result counts. Both rounds (the first misses, the second hits) must
// return exactly the strategy's own scan's entries in the same order,
// so no strategy is served another's result, and the retrieval layer
// counts one hit or miss per query.
func TestIndexedRetrievalEquivalence(t *testing.T) {
	logs := sampleLogs(t)
	strategies := []rag.Retriever{
		rag.ExactTag{},
		rag.Keyword{},
		rag.Fuzzy{},
		rag.Fuzzy{ShingleK: 5, MinSimilarity: 0.02},
	}
	ks := []int{1, 2, 4, 100}
	for _, dbName := range []string{"Quartus", "iverilog"} {
		db := rag.ForCompiler(dbName)
		idx := NewRetrievalIndex(db)
		// A log's queries share one shard (the key's shard hash is the
		// log's), and 16 queries per log overflow a shard of the
		// production bound; this index holds them all, so the second
		// round's hits are all the strategies' own.
		idx.init(len(logs)*len(ks)*len(strategies)*defaultShards, &globalRetrieval)
		indexed := make([]rag.Retriever, len(strategies))
		for i, naive := range strategies {
			indexed[i] = idx.Wrap(naive)
			if indexed[i].Name() != naive.Name() {
				t.Fatalf("wrapped name %q != %q", indexed[i].Name(), naive.Name())
			}
		}
		// A query whose strategies disagree is one where a result served
		// across strategies would show.
		disagree := 0
		for _, log := range logs {
			for _, k := range ks {
				first := strategies[0].Retrieve(db, log, k)
				for _, naive := range strategies[1:] {
					if !reflect.DeepEqual(first, naive.Retrieve(db, log, k)) {
						disagree++
						break
					}
				}
			}
		}
		if disagree == 0 {
			t.Fatalf("%s: every strategy retrieves the same entries on every sample log", dbName)
		}
		queries := len(logs) * len(ks) * len(strategies)
		for round := 0; round < 2; round++ {
			before := TotalsByKind().Retrieval
			for _, log := range logs {
				for _, k := range ks {
					for i, naive := range strategies {
						want := naive.Retrieve(db, log, k)
						got := indexed[i].Retrieve(db, log, k)
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("%s/%s round %d k=%d diverged on log %q:\nnaive   %v\nindexed %v",
								dbName, naive.Name(), round, k, log, ids(want), ids(got))
						}
					}
				}
			}
			d := TotalsByKind().Retrieval.Sub(before)
			if d.Hits+d.Misses != uint64(queries) {
				t.Fatalf("%s round %d: retrieval layer moved by %+v over %d queries", dbName, round, d, queries)
			}
			// The sample logs repeat across personas, so even the first
			// round hits; the second finds every query cached.
			if round == 1 && (d.Hits != uint64(queries) || d.Evictions != 0) {
				t.Fatalf("%s: second round %+v, want %d hits", dbName, d, queries)
			}
		}
	}
}

func ids(entries []rag.Entry) []string {
	var out []string
	for _, e := range entries {
		out = append(out, e.ID)
	}
	return out
}

// TestIndexWrapFallsBackForUnknownStrategies: custom retrievers (like the
// guidance-size ablation's truncating wrapper) cannot be served by the
// index and must pass through unwrapped.
func TestIndexWrapFallsBackForUnknownStrategies(t *testing.T) {
	db := rag.ForCompiler("Quartus")
	idx := NewRetrievalIndex(db)
	custom := customRetriever{}
	if got := idx.Wrap(custom); got != rag.Retriever(custom) {
		t.Fatal("unknown strategy should pass through unwrapped")
	}
	if _, ok := idx.Wrap(nil).(*cachedRetriever); !ok {
		t.Fatal("nil should wrap the default exact-tag strategy")
	}
}

// TestIndexForeignDatabaseBypass: a query against a database other than
// the indexed one must run the scan over that database, uncached.
func TestIndexForeignDatabaseBypass(t *testing.T) {
	db := rag.ForCompiler("Quartus")
	idx := NewRetrievalIndex(db)
	wrapped := idx.Wrap(rag.ExactTag{})
	truncated := rag.NewDatabase(db.Entries()[:5])
	log := (compiler.Quartus{}).Compile("main.v", brokenSrc).Log
	want := rag.ExactTag{}.Retrieve(truncated, log, 4)
	got := wrapped.Retrieve(truncated, log, 4)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("foreign-db query diverged: %v vs %v", ids(want), ids(got))
	}
	if s := idx.Stats(); s != (Stats{}) {
		t.Fatalf("foreign-db query must not touch the index's cache: %+v", s)
	}
}

// TestIndexableClassifiesStrategies pins Wrap's whitelist: the built-in
// scans (and nil, the default) are served from the index, anything else
// runs as given.
func TestIndexableClassifiesStrategies(t *testing.T) {
	for _, r := range []rag.Retriever{nil, rag.ExactTag{}, rag.Keyword{}, rag.Fuzzy{}} {
		if !indexable(r) {
			t.Errorf("%T should be indexable", r)
		}
	}
	if indexable(customRetriever{}) {
		t.Error("custom strategy must not be indexable")
	}
}

type customRetriever struct{}

func (customRetriever) Name() string { return "custom" }
func (customRetriever) Retrieve(db *rag.Database, log string, k int) []rag.Entry {
	return nil
}

// TestStatsArithmetic pins Add/Sub.
func TestStatsArithmetic(t *testing.T) {
	a := Stats{Hits: 5, Misses: 3, Evictions: 1}
	b := Stats{Hits: 2, Misses: 1, Evictions: 1}
	if got := a.Add(b); got != (Stats{Hits: 7, Misses: 4, Evictions: 2}) {
		t.Fatalf("Add = %+v", got)
	}
	if got := a.Sub(b); got != (Stats{Hits: 3, Misses: 2, Evictions: 0}) {
		t.Fatalf("Sub = %+v", got)
	}
}
