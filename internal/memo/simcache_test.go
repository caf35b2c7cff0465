package memo

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/sim"
)

const simCacheGood = `
module top_module(input clk, input [7:0] d, output reg [7:0] q);
	always @(posedge clk) q <= q + d;
endmodule
`

// simCacheRejected elaborates but uses a dynamic replication count, which
// the compiled engine rejects — the cache must remember the nil program.
const simCacheRejected = `
module top_module(input [3:0] n, output [7:0] y);
	assign y = {n{1'b1}};
endmodule
`

const simCacheBroken = `
module top_module(input a, output b);
	assign b = c;
endmodule
`

func TestSimCacheTransparent(t *testing.T) {
	sc := NewSimCache(0)
	for _, src := range []string{simCacheGood, simCacheRejected, simCacheBroken} {
		_, wantDesign, wantDiags := compiler.Frontend(src)
		prog, design, diags := sc.Program(src)
		if (design == nil) != (wantDesign == nil) {
			t.Fatalf("design presence differs from Frontend for %q", src[:20])
		}
		if len(diags) != len(wantDiags) {
			t.Fatalf("diags differ: %d vs %d", len(diags), len(wantDiags))
		}
		if design != nil {
			wantProg, err := sim.Compile(wantDesign)
			if (prog == nil) != (err != nil) {
				t.Fatalf("program presence differs from sim.Compile (err=%v)", err)
			}
			_ = wantProg
		} else if prog != nil {
			t.Fatal("program must be nil when the design is nil")
		}
	}
	if sc.Len() != 3 {
		t.Fatalf("Len = %d, want 3", sc.Len())
	}
}

func TestSimCacheHitsAndReuse(t *testing.T) {
	sc := NewSimCache(0)
	p1, d1, _ := sc.Program(simCacheGood)
	p2, d2, _ := sc.Program(simCacheGood)
	if p1 == nil || p1 != p2 || d1 != d2 {
		t.Fatal("repeat lookups must return the identical cached objects")
	}
	st := sc.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss + 1 hit", st)
	}
	// the shared program instantiates independent simulators
	a, b := sim.NewFromProgram(p1), sim.NewFromProgram(p1)
	a.SetInputUint("d", 2)
	a.ClockPulse("clk")
	if a.Get("q").Uint64() != 2 || b.Get("q").Uint64() != 0 {
		t.Fatal("cached program leaked state between instances")
	}
	// rejected sources cache their nil program (no recompilation storm)
	if prog, design, _ := sc.Program(simCacheRejected); prog != nil || design == nil {
		t.Fatal("rejected source must cache design with nil program")
	}
	before := sc.Stats().Misses
	sc.Program(simCacheRejected)
	if sc.Stats().Misses != before {
		t.Fatal("rejection was not cached")
	}
}

func TestSimCacheFrontend(t *testing.T) {
	sc := NewSimCache(0)
	file, design, diags := sc.Frontend(simCacheBroken)
	if design != nil || file == nil || !diags.HasErrors() {
		t.Fatalf("broken source: file=%v design=%v errs=%v", file != nil, design != nil, diags.HasErrors())
	}
	// Frontend and Program share entries: one miss total for the source.
	sc.Program(simCacheBroken)
	st := sc.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want shared entry", st)
	}
}

func TestSimCacheCapacityBound(t *testing.T) {
	sc := NewSimCache(8)
	for i := 0; i < 64; i++ {
		src := fmt.Sprintf("module m(input a, output y); assign y = a ^ %d'd1; endmodule", i%30+2)
		sc.Program(src)
	}
	if sc.Len() > 16 { // shards × ceil(capacity/shards) ≤ 2x requested
		t.Fatalf("cache exceeded its bound: %d entries", sc.Len())
	}
	if sc.Stats().Evictions == 0 {
		t.Fatal("expected evictions under capacity pressure")
	}
}

// TestSimCacheCollisionGuard plants an entry whose stored source differs
// from the probing source at the same key — the FNV-collision shape — and
// checks the lookup recomputes rather than serving the foreign entry,
// then displaces the collided slot (counted as an eviction).
func TestSimCacheCollisionGuard(t *testing.T) {
	sc := NewSimCache(0)
	key := srcKey(HashSource(simCacheGood))

	// Plant a foreign entry (compiled from a different source) at
	// simCacheGood's slot.
	foreign := entry[text, simEntry]{src: simCacheRejected, val: compileSimEntry(HashSource(simCacheRejected), simCacheRejected)}
	sc.put(key, foreign.src, foreign.val)

	prog, design, _ := sc.Program(simCacheGood)
	if design == nil {
		t.Fatal("collided lookup must recompute the real source")
	}
	if prog == nil {
		t.Fatal("simCacheGood compiles under the engine; got nil program")
	}
	st := sc.Stats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("collision must count as a miss: %+v", st)
	}
	if st.Evictions != 1 {
		t.Fatalf("collision overwrite must count as an eviction: %+v", st)
	}
	// The slot now holds the real source: the next lookup hits.
	if _, d2, _ := sc.Program(simCacheGood); d2 != design {
		t.Fatal("recomputed entry was not installed")
	}
	if st := sc.Stats(); st.Hits != 1 {
		t.Fatalf("post-collision lookup must hit: %+v", st)
	}
}

// TestSimCacheChurnConcurrent hammers a deliberately tiny cache from many
// goroutines with a working set larger than capacity, so FIFO
// displacement, re-misses of displaced keys, and racing fills of the same
// key all happen at once. Asserts the capacity bound holds, displaced
// entries recompute correctly, and planted collisions never leak a
// foreign entry to any caller.
func TestSimCacheChurnConcurrent(t *testing.T) {
	const capacity, distinct, workers, iters = 8, 40, 8, 120
	sc := NewSimCache(capacity)
	srcs := make([]string, distinct)
	for i := range srcs {
		srcs[i] = fmt.Sprintf("module m(input [3:0] a, output [3:0] y); assign y = a + 4'd%d; endmodule", i%16)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				src := srcs[(w*7+i)%distinct]
				prog, design, diags := sc.Program(src)
				if design == nil || prog == nil {
					t.Errorf("valid source failed under churn: %v", diags)
					return
				}
				// Interleave collision plants: overwrite a random slot
				// with an entry for a different source, as a hash
				// collision would.
				if i%17 == 0 {
					key := srcKey(HashSource(srcs[(i+1)%distinct]))
					shard := sc.shardFor(key)
					shard.mu.Lock()
					if _, ok := shard.entries[key]; ok {
						shard.entries[key] = entry[text, simEntry]{src: text(srcs[i%distinct])}
					}
					shard.mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()

	if n := sc.Len(); n > 2*capacity {
		t.Fatalf("capacity bound violated under churn: %d entries", n)
	}
	st := sc.Stats()
	if st.Evictions == 0 {
		t.Fatalf("churn over capacity must displace entries: %+v", st)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("churn should mix hits and misses: %+v", st)
	}
	// Every cached entry must be self-consistent: the stored source is
	// the one its design was compiled from (planted collisions must have
	// been displaced by real recomputes or remain marked foreign, never
	// half-merged).
	for i := range sc.shards {
		s := &sc.shards[i]
		s.mu.Lock()
		for key, e := range s.entries {
			if e.val.design != nil && srcKey(HashSource(string(e.src))) != key {
				s.mu.Unlock()
				t.Fatalf("entry stored under wrong key: %q", e.src)
			}
		}
		s.mu.Unlock()
	}
}

func TestSimCacheConcurrent(t *testing.T) {
	sc := NewSimCache(0)
	var wg sync.WaitGroup
	progs := make([]*sim.Program, 16)
	for i := range progs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, _, _ := sc.Program(simCacheGood)
			progs[i] = p
		}(i)
	}
	wg.Wait()
	for _, p := range progs {
		if p == nil || p != progs[0] {
			t.Fatal("racing lookups must converge on one cached program")
		}
	}
}
