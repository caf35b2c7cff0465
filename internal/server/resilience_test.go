package server

import (
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
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

// TestRepeatedPanicsDoNotRefuseConfiguration: panicking runs are
// isolated one by one and never take their configuration out of
// service. Six panics in a row against the default configuration (one
// more than a five-failure breaker would allow) each answer the typed
// 500, and the next request is served normally.
func TestRepeatedPanicsDoNotRefuseConfiguration(t *testing.T) {
	const panics = 6
	_, ts := newTestServer(t, Config{})
	r := fault.MustParse("worker.panic:1", 1)
	if err := r.SetLimit(fault.WorkerPanic, panics); err != nil {
		t.Fatal(err)
	}
	fault.Install(r)
	defer fault.Uninstall()

	for i := 0; i < panics; i++ {
		status, out := postFix(t, ts.URL, map[string]any{"source": brokenSource})
		if status != http.StatusInternalServerError {
			t.Fatalf("panicked run %d = %d %v, want 500", i+1, status, out)
		}
	}
	status, out := postFix(t, ts.URL, map[string]any{"source": brokenSource})
	if status != http.StatusOK || out["success"] != true {
		t.Fatalf("request after %d panics = %d %v, want 200", panics, status, out)
	}
	res := serverStatsJSON(t, ts.URL)["resilience"].(map[string]any)
	if res["panics_worker"].(float64) != panics {
		t.Fatalf("panics_worker = %v, want %d", res["panics_worker"], panics)
	}
}

// runnerCapture runs 60000 × 60000 loop trips in one clock edge: each
// loop stays under the per-loop trip limit, so only the sim check's
// watchdog can stop it.
const runnerCapture = `module top_module(input clk, output reg [31:0] q);
  integer i, j;
  always @(posedge clk)
    for (i = 0; i < 60000; i = i + 1)
      for (j = 0; j < 60000; j = j + 1)
        q = q + 1;
endmodule
`

// TestLoopNestDoesNotCaptureRunner: the sim check of a design whose
// clock edge runs billions of loop trips is stopped by its wall-clock
// watchdog, so the request is answered within the check's budget, the
// one runner is free for the next request, and Close returns.
func TestLoopNestDoesNotCaptureRunner(t *testing.T) {
	const slack = 3 * time.Second
	s, ts := newTestServer(t, Config{MaxInFlight: 1})

	start := time.Now()
	status, out := postFix(t, ts.URL, map[string]any{
		"source":     runnerCapture,
		"timeout_ms": (sim.CheckWall + slack).Milliseconds(),
	})
	if status != http.StatusOK || out["success"] != true {
		t.Fatalf("loop nest = %d %v, want 200 success", status, out)
	}
	if el := time.Since(start); el > sim.CheckWall+slack {
		t.Fatalf("loop nest answered after %v, budget %v", el, sim.CheckWall)
	}
	if got := stat(t, s, "sim_check.watchdog"); got != 1 {
		t.Fatalf("sim_check.watchdog = %v, want 1 (%v)", got, s.Stats()["sim_check"])
	}

	// The single runner is free again.
	status, out = postFix(t, ts.URL, map[string]any{"source": brokenSource, "timeout_ms": slack.Milliseconds()})
	if status != http.StatusOK || out["success"] != true {
		t.Fatalf("request after the loop nest = %d %v, want 200", status, out)
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(slack):
		t.Fatal("Close did not return")
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
	s, ts := newTestServer(t, Config{MaxInFlight: 1, QueueDepth: -1})
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

// TestHostileExpressionsDoNotKillServer: designs whose declarations are
// small but whose expressions are not. Nested replication made the
// post-fix sim check's engine instance allocate 8 GiB, and a 2e9-bit
// literal made constant interning allocate gigabytes; both killed the
// process. The compiler's register-state bound and the literal-size
// bound refuse them, so each request is answered, allocates little, and
// the process stays healthy. Constants at the top of the 64-bit range
// are time, not space: $clog2 of 2^64-1 looped forever in sema's folder,
// and a shift by 2^63 recursed in the folder and both backends until the
// stack overflowed. bitvec.Clog2 and bitvec.(Vec).ShiftCount bound them.
func TestHostileExpressionsDoNotKillServer(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, src := range []string{
		"module top_module(input a, output y); wire [7:0] w = {4096{{4096{{4096{a}}}}}}; assign y = w[0]; endmodule",
		"module top_module(input a, output y); assign y = a ^ 2000000000'd0; endmodule",
		"module top_module(output [31:0] y); localparam P = $clog2(64'hFFFFFFFFFFFFFFFF); assign y = P; endmodule",
		"module top_module(input [7:0] a, output [7:0] y); localparam P = 1 << 64'h8000000000000000; assign y = (a << 64'h8000000000000000) ^ P; endmodule",
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		status, out := postFix(t, ts.URL, map[string]any{"source": src})
		runtime.ReadMemStats(&after)
		if status != http.StatusOK || out["success"] == nil {
			t.Fatalf("status %d, body %v: want a 200 fix response", status, out)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
			t.Fatalf("%q: the request allocated %d MB", src, grew>>20)
		}
		if code, health := getJSON(t, ts.URL+"/v1/healthz"); code != http.StatusOK {
			t.Fatalf("healthz after %q: %d %v", src, code, health)
		}
	}
}

// TestOversizedRegisterDoesNotKillServer: one /v1/fix of a design with a
// 2e9-bit register used to reach the post-fix sim check, whose coverage
// observer allocated the register's full width and killed the process.
// The frontend now refuses any signal over sema.MaxSignalBits, so the
// request gets an answer, the process stays healthy, and the request
// allocates nowhere near the register's 250 MB.
func TestOversizedRegisterDoesNotKillServer(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const src = "module top_module(input clk, output reg [1999999999:0] q); always @(posedge clk) q <= ~q; endmodule"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	status, out := postFix(t, ts.URL, map[string]any{"source": src})
	runtime.ReadMemStats(&after)
	if status != http.StatusOK || out["success"] != false {
		t.Fatalf("status %d, body %v: want a 200 reporting the design unfixed", status, out)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("the request allocated %d MB", grew>>20)
	}
	if code, health := getJSON(t, ts.URL+"/v1/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after the oversized design: %d %v", code, health)
	}
}
