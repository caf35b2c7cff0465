package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

// getJSON fetches url and decodes the JSON body.
func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("non-JSON body from %s: %v", url, err)
	}
	return resp.StatusCode, out
}

func serverStatsJSON(t *testing.T, base string) map[string]any {
	t.Helper()
	_, out := getJSON(t, base+"/v1/stats")
	return out
}

// TestWorkerPanicIsolated: an agent run that panics mid-flight answers
// its waiter a typed 500, the daemon keeps serving, and the panic is
// counted — the tentpole's panic-isolation contract.
func TestWorkerPanicIsolated(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	r := fault.MustParse("worker.panic:1", 1)
	if err := r.SetLimit(fault.WorkerPanic, 1); err != nil {
		t.Fatal(err)
	}
	fault.Install(r)
	defer fault.Uninstall()

	status, out := postFix(t, ts.URL, map[string]any{"source": brokenSource})
	if status != http.StatusInternalServerError {
		t.Fatalf("panicked run = %d %v, want 500", status, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "isolated; server healthy") {
		t.Fatalf("panic error body = %v", out)
	}
	// The daemon survived: the very next request runs normally.
	status, out = postFix(t, ts.URL, map[string]any{"source": brokenSource})
	if status != http.StatusOK || out["success"] != true {
		t.Fatalf("post-panic request = %d %v", status, out)
	}
	stats := serverStatsJSON(t, ts.URL)
	res := stats["resilience"].(map[string]any)
	if res["panics_worker"].(float64) != 1 {
		t.Fatalf("panics_worker = %v", res["panics_worker"])
	}
}

// TestHandlerPanicRecovered: a panic inside an HTTP handler is caught by
// the ServeHTTP bulkhead — typed 500, counter, daemon up.
func TestHandlerPanicRecovered(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	r := fault.MustParse("handler.panic:1", 1)
	if err := r.SetLimit(fault.HandlerPanic, 1); err != nil {
		t.Fatal(err)
	}
	fault.Install(r)
	defer fault.Uninstall()

	status, out := postFix(t, ts.URL, map[string]any{"source": cleanSource})
	if status != http.StatusInternalServerError {
		t.Fatalf("panicked handler = %d %v, want 500", status, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "recovered; server healthy") {
		t.Fatalf("panic error body = %v", out)
	}
	if status, _ := postFix(t, ts.URL, map[string]any{"source": cleanSource}); status != http.StatusOK {
		t.Fatalf("post-panic request = %d", status)
	}
	res := serverStatsJSON(t, ts.URL)["resilience"].(map[string]any)
	if res["panics_http"].(float64) != 1 {
		t.Fatalf("panics_http = %v", res["panics_http"])
	}
}

// TestLLMAbortAnswers502: a persistently-failing backend aborts the run
// past the retry budget; the waiter gets a typed 502 (upstream fault,
// not client error) and the abort is counted.
func TestLLMAbortAnswers502(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	fault.Install(fault.MustParse("llm.persistent:1", 1))
	defer fault.Uninstall()

	status, out := postFix(t, ts.URL, map[string]any{"source": brokenSource})
	if status != http.StatusBadGateway {
		t.Fatalf("aborted run = %d %v, want 502", status, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "llm backend") {
		t.Fatalf("abort body = %v", out)
	}
	res := serverStatsJSON(t, ts.URL)["resilience"].(map[string]any)
	if res["llm_aborted"].(float64) != 1 {
		t.Fatalf("llm_aborted = %v", res["llm_aborted"])
	}
}

// TestLLMRetryRecoveredSurfaces: two transient failures are retried
// inside the agent; the request still answers 200 and the retry ledger
// shows a retried, recovered run — the chaos gate's recovery floor
// reads exactly these counters.
func TestLLMRetryRecoveredSurfaces(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	r := fault.MustParse("llm.transient:1", 1)
	if err := r.SetLimit(fault.LLMTransient, 2); err != nil {
		t.Fatal(err)
	}
	fault.Install(r)
	defer fault.Uninstall()

	status, out := postFix(t, ts.URL, map[string]any{"source": brokenSource})
	if status != http.StatusOK || out["success"] != true {
		t.Fatalf("retried run = %d %v, want 200 success", status, out)
	}
	stats := serverStatsJSON(t, ts.URL)
	res := stats["resilience"].(map[string]any)
	if res["llm_retried_runs"].(float64) != 1 || res["llm_retry_recovered"].(float64) != 1 {
		t.Fatalf("retry ledger = %v", res)
	}
	// The active profile's counters are on the stats body for the chaos
	// harness's determinism assertions.
	faults, ok := stats["faults"].(map[string]any)
	if !ok {
		t.Fatalf("faults section missing: %v", stats["faults"])
	}
	pt := faults["llm.transient"].(map[string]any)
	if pt["fired"].(float64) != 2 {
		t.Fatalf("llm.transient fired = %v, want 2", pt["fired"])
	}
}

// TestBreakerOpensAndRecloses: consecutive aborted runs against one
// fixer configuration open its breaker (immediate 503, no agent run);
// after the cooldown a half-open probe recloses it.
func TestBreakerOpensAndRecloses(t *testing.T) {
	_, ts := newTestServer(t, Config{BreakerThreshold: 2, BreakerCooldown: 50 * time.Millisecond})
	fault.Install(fault.MustParse("llm.persistent:1", 1))

	for i := 0; i < 2; i++ {
		if status, _ := postFix(t, ts.URL, map[string]any{"source": brokenSource, "seed": i + 1}); status != http.StatusBadGateway {
			t.Fatalf("abort %d: status %d, want 502", i, status)
		}
	}
	status, out := postFix(t, ts.URL, map[string]any{"source": brokenSource, "seed": 3})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("open breaker = %d %v, want 503", status, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "circuit breaker open") {
		t.Fatalf("breaker body = %v", out)
	}

	// Backend recovers; after the cooldown the half-open probe runs for
	// real and its success recloses the circuit.
	fault.Uninstall()
	time.Sleep(60 * time.Millisecond)
	for i := 0; i < 2; i++ {
		status, out = postFix(t, ts.URL, map[string]any{"source": brokenSource, "seed": 10 + i})
		if status != http.StatusOK {
			t.Fatalf("post-recovery request %d = %d %v", i, status, out)
		}
	}

	res := serverStatsJSON(t, ts.URL)["resilience"].(map[string]any)
	if res["breaker_rejected"].(float64) != 1 {
		t.Fatalf("breaker_rejected = %v", res["breaker_rejected"])
	}
	brs, ok := res["breakers"].(map[string]any)
	if !ok || len(brs) != 1 {
		t.Fatalf("breakers = %v", res["breakers"])
	}
	for _, v := range brs {
		b := v.(map[string]any)
		if b["state"] != "closed" || b["opens"].(float64) != 1 {
			t.Fatalf("breaker snapshot = %v", b)
		}
	}
}

// TestReadyzGates: readiness is one predicate. /v1/readyz, the
// rtlfixer_ready gauge and /v1/stats resilience.ready agree in every
// state — ready, warming, draining — while healthz stays 200
// throughout: the liveness/routability split.
func TestReadyzGates(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	check := func(want string) {
		t.Helper()
		code, out := getJSON(t, ts.URL+"/v1/readyz")
		wantCode, gauge := http.StatusServiceUnavailable, "rtlfixer_ready 0\n"
		if want == "ready" {
			wantCode, gauge = http.StatusOK, "rtlfixer_ready 1\n"
		}
		if code != wantCode || out["status"] != want {
			t.Fatalf("readyz = %d %v, want %d %q", code, out, wantCode, want)
		}
		if got, _ := lookup(serverStatsJSON(t, ts.URL), "resilience.ready"); got != (want == "ready") {
			t.Fatalf("%s: /v1/stats resilience.ready = %v", want, got)
		}
		if _, raw := get(t, ts.URL+"/metrics"); !strings.Contains(string(raw), gauge) {
			t.Fatalf("%s: /metrics lacks %q", want, gauge)
		}
		if code, _ := getJSON(t, ts.URL+"/v1/healthz"); code != http.StatusOK {
			t.Fatalf("healthz while %s = %d, want 200", want, code)
		}
	}
	check("ready")
	s.prewarmed.Store(false)
	check("warming")
	s.prewarmed.Store(true)
	check("ready")

	s.BeginDrain()
	check("draining")
}

// TestPrewarmBuildsDefaultFixer: with Prewarm on, readyz turns 200 once
// the background build finishes, and the default configuration is
// already pooled — the first routed request pays no index construction.
func TestPrewarmBuildsDefaultFixer(t *testing.T) {
	s, ts := newTestServer(t, Config{Prewarm: true})
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, _ := getJSON(t, ts.URL+"/v1/readyz")
		if status == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never turned ready under Prewarm")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s.Fixers() != 1 {
		t.Fatalf("fixers after prewarm = %d, want 1", s.Fixers())
	}
	// The prewarmed configuration is the default request's: no second
	// pool entry appears when an unconfigured request arrives.
	if status, _ := postFix(t, ts.URL, map[string]any{"source": cleanSource}); status != http.StatusOK {
		t.Fatalf("first request = %d", status)
	}
	if s.Fixers() != 1 {
		t.Fatalf("fixers after first request = %d, want 1 (prewarm matched)", s.Fixers())
	}
}

// TestBrownoutShedsLint: with the admission pool saturated, lint (a
// best-effort surface) is shed with 503 and counted; once load clears
// it serves again. Fix traffic is untouched by the brownout check.
func TestBrownoutShedsLint(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, QueueDepth: -1, Workers: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	s.testHook = func(*flight) {
		close(entered)
		<-release
	}

	go func() {
		body, _ := json.Marshal(map[string]any{"source": brokenSource})
		resp, err := http.Post(ts.URL+"/v1/fix", "application/json", strings.NewReader(string(body)))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered // admission pool (capacity 1) is now full

	resp, err := http.Post(ts.URL+"/v1/lint", "application/json",
		strings.NewReader(`{"source":"module m;\nendmodule\n"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("lint under brownout = %d, want 503", resp.StatusCode)
	}
	close(release)

	// Load cleared: lint serves again.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err = http.Post(ts.URL+"/v1/lint", "application/json",
			strings.NewReader(`{"source":"module m;\nendmodule\n"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lint still shed after load cleared: %d", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
	res := serverStatsJSON(t, ts.URL)["resilience"].(map[string]any)
	if res["brownout_lint_shed"].(float64) < 1 {
		t.Fatalf("brownout_lint_shed = %v", res["brownout_lint_shed"])
	}
}
