package memo

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/compiler"
)

// countingCompiler is a persona whose compiles are counted and held
// until the test closes gate.
type countingCompiler struct {
	compiler.Quartus
	calls   atomic.Int32
	started chan struct{} // closed by the first call
	once    sync.Once
	gate    chan struct{}
}

func (c *countingCompiler) Compile(filename, src string) compiler.Result {
	c.calls.Add(1)
	c.once.Do(func() { close(c.started) })
	<-c.gate
	return c.Quartus.Compile(filename, src)
}

// TestCompileCacheSingleFlight: callers that miss one source while it is
// being compiled share that compile; the persona runs once, and the
// counters read one miss and n-1 hits, as a serial run would.
func TestCompileCacheSingleFlight(t *testing.T) {
	const n = 8
	inner := &countingCompiler{started: make(chan struct{}), gate: make(chan struct{})}
	cc := NewCompileCache(0)
	cached := cc.Cached(inner)
	want := compiler.Quartus{}.Compile("main.v", brokenSrc)

	results := make([]compiler.Result, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0] = cached.Compile("main.v", brokenSrc)
	}()
	<-inner.started // the first caller is now compiling
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = cached.Compile("main.v", brokenSrc)
		}(i)
	}
	close(inner.gate)
	wg.Wait()

	if got := inner.calls.Load(); got != 1 {
		t.Fatalf("persona compiled the source %d times, want 1", got)
	}
	for i, r := range results {
		if r.Log != want.Log || &r.Diags[0] != &results[0].Diags[0] {
			t.Fatalf("caller %d got a result not shared with the first caller", i)
		}
	}
	if s := cc.Stats(); s.Misses != 1 || s.Hits != n-1 {
		t.Fatalf("stats %+v, want 1 miss and %d hits", s, n-1)
	}
}

// TestCacheSingleFlightPanicReleasesWaiters: a computation that panics
// must not strand the callers waiting on it. They retry, one computes in
// its place, and the value is cached; the panic reaches only the caller
// whose computation raised it.
func TestCacheSingleFlightPanicReleasesWaiters(t *testing.T) {
	const n = 6
	cc := NewCompileCache(0)
	key := compileKey{persona: "Quartus", filename: "main.v", srcHash: HashSource(cleanSrc)}
	good := compiler.Result{Ok: true, Log: "good"}
	started, release := make(chan struct{}), make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if recover() == nil {
				t.Error("the panicking computation's caller did not see its panic")
			}
		}()
		cc.getOrCompute(key, cleanSrc, func() compiler.Result {
			close(started)
			<-release
			panic("compile blew up")
		})
	}()
	<-started
	var computed atomic.Int32
	got := make([]compiler.Result, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = cc.getOrCompute(key, cleanSrc, func() compiler.Result {
				computed.Add(1)
				return good
			})
		}(i)
	}
	close(release)
	wg.Wait()

	for i, r := range got {
		if r.Log != "good" {
			t.Fatalf("waiter %d got %q after the panic, want the recomputed value", i, r.Log)
		}
	}
	if c := computed.Load(); c != 1 {
		t.Fatalf("waiters computed the value %d times, want 1", c)
	}
	r, hit := cc.getOrCompute(key, cleanSrc, func() compiler.Result {
		t.Error("recomputed value not cached")
		return compiler.Result{}
	})
	if !hit || r.Log != "good" {
		t.Fatalf("recomputed value not cached: hit=%v %q", hit, r.Log)
	}
}

// latchSrc elaborates with an error (an undeclared identifier) and holds
// an inferred latch, so its result has lint findings but no Design.
const latchSrc = `module top_module(input sel, input a, output reg y);
	always @(*) begin
		if (sel) y = a;
	end
	assign z = missing;
endmodule
`

// TestCompileCacheHitSkipsAnalyzer: the findings of a cached compile are
// computed once for the entry. A hit returns the very same list and
// allocates nothing, so the analyzer did not run again.
func TestCompileCacheHitSkipsAnalyzer(t *testing.T) {
	cached := NewCompileCache(0).Cached(compiler.Quartus{})
	first := cached.Compile("main.v", latchSrc).Findings()
	if len(first) == 0 {
		t.Fatal("latch source produced no findings")
	}
	again := cached.Compile("main.v", latchSrc).Findings()
	if &again[0] != &first[0] {
		t.Fatal("a compile-cache hit recomputed the findings")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		_ = cached.Compile("main.v", latchSrc).Findings()
	}); allocs != 0 {
		t.Fatalf("a cache hit's findings cost %.0f allocs, want 0", allocs)
	}
}
