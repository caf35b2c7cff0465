package agent

import (
	"sync"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/memo"
	"repro/internal/trace"
)

// gatedCompiler holds every compile until gate closes and closes
// started on the first one.
type gatedCompiler struct {
	compiler.Quartus
	started chan struct{}
	once    sync.Once
	gate    chan struct{}
}

func (g *gatedCompiler) Compile(filename, src string) compiler.Result {
	g.once.Do(func() { close(g.started) })
	<-g.gate
	return g.Quartus.Compile(filename, src)
}

// TestCompileSpanReportsWaiterHit: a compile that waits on another
// caller's in-flight compile of the same source is a cache hit in the
// counters, and its compile span says so too.
func TestCompileSpanReportsWaiterHit(t *testing.T) {
	inner := &gatedCompiler{started: make(chan struct{}), gate: make(chan struct{})}
	cc := memo.NewCompileCache(0)
	cfg := quartusCfg(1, false)
	cfg.Compiler = cc.Cached(inner)
	coll := trace.NewCollector(0, 0, 0)
	compileHit := func() any {
		root := coll.Start("test")
		compileStep(cfg, root, brokenClk)
		root.End()
		tr, ok := coll.Get(root.TraceID())
		if !ok {
			t.Error("trace not collected")
			return nil
		}
		return tr.JSON().Root.Children[0].Attrs["cache_hit"]
	}

	var leader, waiter any
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		leader = compileHit()
	}()
	<-inner.started // the leader is compiling
	go func() {
		defer wg.Done()
		waiter = compileHit()
	}()
	// Give the waiter time to block on the leader's flight. Arriving
	// after the leader finished would also read a hit, so the sleep only
	// decides whether the waiter path is the one exercised.
	time.Sleep(20 * time.Millisecond)
	close(inner.gate)
	wg.Wait()

	if leader != false || waiter != true {
		t.Fatalf("compile spans read cache_hit leader=%v waiter=%v, want false and true", leader, waiter)
	}
	if s := cc.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("stats %+v, want 1 miss and 1 hit", s)
	}
}
