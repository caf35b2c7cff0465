package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/memo"
	"repro/internal/store"
)

// TestWarmRestartServesIdenticalResponsesFromCache is the in-process
// version of the smoke script's kill-and-restart assertion: a daemon
// restarted over the same -state-dir must answer the replayed workload
// byte-identically (modulo timing fields) and serve its first request
// with cache hits, not recomputes.
func TestWarmRestartServesIdenticalResponsesFromCache(t *testing.T) {
	dir := t.TempDir()
	req := map[string]any{"source": brokenSource, "seed": int64(7)}

	// Cold daemon: serve once, drain, flush, close.
	st1, err := store.Open(dir, store.Options{NoFlusher: true})
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTestServer(t, Config{Store: st1})
	status, cold := postFix(t, ts1.URL, req)
	if status != http.StatusOK {
		t.Fatalf("cold fix status = %d: %v", status, cold)
	}
	ts1.Close()
	s1.Close()
	if err := st1.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}

	// Warm daemon over the same state dir.
	st2, err := store.Open(dir, store.Options{NoFlusher: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	if st2.Stats().LoadedAtOpen == 0 {
		t.Fatal("state did not survive the restart")
	}
	_, ts2 := newTestServer(t, Config{Store: st2})

	before := memo.TotalsByKind().Compile
	status, warm := postFix(t, ts2.URL, req)
	if status != http.StatusOK {
		t.Fatalf("warm fix status = %d: %v", status, warm)
	}
	delta := memo.TotalsByKind().Compile.Sub(before)
	if delta.Hits == 0 {
		t.Fatalf("warm first request must hit the restored cache: %+v", delta)
	}
	if delta.Misses != 0 {
		t.Fatalf("warm first request recompiled %d times", delta.Misses)
	}

	// Byte-identical modulo the timing/coalescing fields.
	for _, field := range []string{"success", "iterations", "final_code", "fixer_rules"} {
		cv, wv := fmtField(cold[field]), fmtField(warm[field])
		if cv != wv {
			t.Fatalf("field %q differs across restart:\ncold: %v\nwarm: %v", field, cv, wv)
		}
	}
}

func fmtField(v any) string {
	switch x := v.(type) {
	case nil:
		return "<nil>"
	case string:
		return x
	default:
		b, _ := json.Marshal(v)
		return string(b)
	}
}

// TestStatsReportsPerCacheLayersAndStore checks the /v1/stats breakdown:
// per-layer cache counters plus the store section when configured.
func TestStatsReportsPerCacheLayersAndStore(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{NoFlusher: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s, ts := newTestServer(t, Config{Store: st})
	if status, _ := postFix(t, ts.URL, map[string]any{"source": brokenSource}); status != http.StatusOK {
		t.Fatalf("fix status = %d", status)
	}

	doc := s.Stats()
	stored, ok := doc["store"].(store.Stats)
	if !ok {
		t.Fatal("stats must carry the store section when -state-dir is set")
	}
	if stored.Dir != dir {
		t.Fatalf("store dir = %q, want %q", stored.Dir, dir)
	}
	if stored.Stores == 0 {
		t.Fatal("serving a fix must write compile records behind")
	}
	// The aggregate must equal the sum of the per-layer counters.
	sum := num(t, doc, "cache.compile.hits") + num(t, doc, "cache.sim.hits") + num(t, doc, "cache.retrieval.hits")
	if hits := num(t, doc, "cache.hits"); hits != sum {
		t.Fatalf("aggregate hits %v != per-layer sum %v", hits, sum)
	}

	// Without a store the section is absent.
	s2, _ := newTestServer(t, Config{})
	if _, ok := s2.Stats()["store"]; ok {
		t.Fatal("store section must be omitted without -state-dir")
	}
}
