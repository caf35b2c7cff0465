package memo

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rag"
)

// fields is a pure read whose value is a slice, clipped as the package
// comment asks of every cached slice.
func fields(s string) []string { return slices.Clip(strings.Fields(s)) }

// TestReadsMatchesRead: Get returns read's value on the miss and the
// same value on every hit, counting one miss per distinct text into the
// reads layer.
func TestReadsMatchesRead(t *testing.T) {
	before := TotalsByKind().Reads
	r := NewReads(0, fields)
	texts := []string{"", "a", "module m; endmodule", "a b  c\n d", cleanSrc, brokenSrc}
	for round := 0; round < 3; round++ {
		for _, s := range texts {
			if got, want := r.Get(s), fields(s); !reflect.DeepEqual(got, want) {
				t.Fatalf("Get(%q) = %q, want %q", s, got, want)
			}
		}
	}
	want := Stats{Hits: 2 * uint64(len(texts)), Misses: uint64(len(texts))}
	if s := r.Stats(); s != want {
		t.Fatalf("stats %+v, want %+v", s, want)
	}
	if d := TotalsByKind().Reads.Sub(before); d != want {
		t.Fatalf("reads layer moved by %+v, want %+v", d, want)
	}
}

// TestReadsCollisionIsMiss plants a value computed from a different
// text under a text's key, the shape an FNV-64a collision leaves: the
// lookup must miss and compute the text's own value.
func TestReadsCollisionIsMiss(t *testing.T) {
	r := NewReads(0, fields)
	const src, foreign = "wire a;", "reg b;"
	r.put(srcKey(HashSource(src)), text(foreign), fields(foreign))
	if got := r.Get(src); !reflect.DeepEqual(got, fields(src)) {
		t.Fatalf("colliding lookup served %q, want %q", got, fields(src))
	}
	if s := r.Stats(); s.Misses != 1 || s.Hits != 0 || s.Evictions != 1 {
		t.Fatalf("collision should count one miss and one eviction, got %+v", s)
	}
}

// TestReadsBounded: however many texts pass through, the cache holds at
// most its capacity rounded up to shard granularity.
func TestReadsBounded(t *testing.T) {
	const capacity = 100
	r := NewReads(capacity, fields)
	bound := len(r.shards) * r.capPerShard
	if bound < capacity || bound > 2*capacity {
		t.Fatalf("bound %d for capacity %d", bound, capacity)
	}
	for i := 0; i < 20*capacity; i++ {
		r.Get(fmt.Sprintf("text %d", i))
		if n := r.Len(); n > bound {
			t.Fatalf("after %d texts the cache holds %d values, bound %d", i+1, n, bound)
		}
	}
	if s := r.Stats(); s.Evictions == 0 {
		t.Fatalf("no evictions after %d distinct texts: %+v", 20*capacity, s)
	}
}

// TestReadsConcurrentGet hammers one cache from many goroutines (CI runs
// it under -race): every Get returns read's value, and single-flight
// misses compute each text once.
func TestReadsConcurrentGet(t *testing.T) {
	var calls atomic.Int64
	r := NewReads(0, func(s string) []string {
		calls.Add(1)
		return fields(s)
	})
	texts := make([]string, 64)
	for i := range texts {
		texts[i] = fmt.Sprintf("module m%d; wire w%d; endmodule", i, i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20*len(texts); i++ {
				s := texts[(i*7+g)%len(texts)]
				if got := r.Get(s); !reflect.DeepEqual(got, fields(s)) {
					t.Errorf("Get(%q) = %q", s, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := calls.Load(); n != int64(len(texts)) {
		t.Fatalf("read ran %d times for %d distinct texts", n, len(texts))
	}
	if s := r.Stats(); s.Misses != uint64(len(texts)) || s.Hits+s.Misses != 8*20*uint64(len(texts)) {
		t.Fatalf("stats %+v", s)
	}
}

// TestExactTagCache: the index's exact-tag results equal the naive
// scan's on the miss and on the hit, for every k; a planted collision
// is a miss; two appends to a result do not share its backing array; the
// cache counts into the reads layer while the lookups stay retrieval's.
func TestExactTagCache(t *testing.T) {
	db := rag.ForCompiler("Quartus")
	idx := NewRetrievalIndex(db)
	indexed := idx.Wrap(rag.ExactTag{})
	before := TotalsByKind()
	logs := sampleLogs(t)
	n := 0
	for round := 0; round < 2; round++ {
		for _, log := range logs {
			for _, k := range []int{1, 4, 100} {
				want := rag.ExactTag{}.Retrieve(db, log, k)
				got := indexed.Retrieve(db, log, k)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("k=%d diverged on log %q:\nnaive   %v\nindexed %v", k, log, ids(want), ids(got))
				}
				if round == 0 {
					n++
				}
			}
		}
	}
	after := TotalsByKind()
	if d := after.Retrieval.Sub(before.Retrieval); d.Lookups != uint64(2*n) {
		t.Fatalf("retrieval lookups moved by %+v, want %d", d, 2*n)
	}
	// Texts repeat across personas' logs, so misses are at most n.
	if d := after.Reads.Sub(before.Reads); d.Hits+d.Misses != uint64(2*n) || d.Misses > uint64(n) {
		t.Fatalf("reads layer moved by %+v over %d queries", d, 2*n)
	}

	// log and foreign are two logs whose top-4 entries differ, so a
	// served collision would show.
	var log, foreign string
	for _, l := range logs {
		hits := rag.ExactTag{}.Retrieve(db, l, 4)
		switch {
		case len(hits) == 0:
		case log == "":
			log = l
		case foreign == "" && !reflect.DeepEqual(hits, rag.ExactTag{}.Retrieve(db, log, 4)):
			foreign = l
		}
	}
	if foreign == "" {
		t.Fatal("the sample logs do not retrieve two different entry lists")
	}
	for _, l := range logs {
		for _, k := range []int{1, 4, 100} {
			a := append(indexed.Retrieve(db, l, k), rag.Entry{ID: "a"})
			b := append(indexed.Retrieve(db, l, k), rag.Entry{ID: "b"})
			if a[len(a)-1].ID != "a" || b[len(b)-1].ID != "b" {
				t.Fatalf("k=%d: two appends to the cached result of %q share its backing array", k, l)
			}
			if again := indexed.Retrieve(db, l, k); !reflect.DeepEqual(again, rag.ExactTag{}.Retrieve(db, l, k)) {
				t.Fatalf("k=%d: cached result became %v after appends", k, ids(again))
			}
		}
	}

	fresh := NewRetrievalIndex(db)
	fresh.tags.put(tagKey{log: HashSource(log), k: 4}, tagQuery{log: foreign, k: 4}, fresh.exactTag(foreign, 4))
	if got := fresh.Wrap(rag.ExactTag{}).Retrieve(db, log, 4); !reflect.DeepEqual(got, rag.ExactTag{}.Retrieve(db, log, 4)) {
		t.Fatalf("colliding lookup served %v", ids(got))
	}
	if s := fresh.tags.Stats(); s.Misses != 1 || s.Hits != 0 || s.Evictions != 1 {
		t.Fatalf("collision should count one miss and one eviction, got %+v", s)
	}
}
