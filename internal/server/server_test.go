package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// brokenSource is the paper's Fig. 5 example (posedge clk, no clk port):
// fixable by the default ReAct + RAG + Quartus configuration.
const brokenSource = `module top_module (
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

const cleanSource = "module m;\nendmodule\n"

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postFix(t *testing.T, url string, body map[string]any) (int, map[string]any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/fix", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var out map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("non-JSON response (%d): %s", resp.StatusCode, raw)
		}
	}
	return resp.StatusCode, out
}

// lookup walks a dotted path through a /v1/stats document: the live one
// from Server.Stats or one decoded from the wire.
func lookup(doc map[string]any, path string) (any, bool) {
	var v any = doc
	for _, k := range strings.Split(path, ".") {
		m, ok := v.(map[string]any)
		if !ok {
			return nil, false
		}
		if v, ok = m[k]; !ok {
			return nil, false
		}
	}
	return v, true
}

// num reads one numeric value from a /v1/stats document by path.
func num(t *testing.T, doc map[string]any, path string) float64 {
	t.Helper()
	v, _ := lookup(doc, path)
	f, ok := v.(float64)
	if !ok {
		t.Fatalf("stats %s = %v, want a number", path, v)
	}
	return f
}

// stat reads one numeric value from the server's live /v1/stats document.
func stat(t *testing.T, s *Server, path string) float64 {
	t.Helper()
	return num(t, s.Stats(), path)
}

func TestFixEndpointFixesPaperExample(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, out := postFix(t, ts.URL, map[string]any{"source": brokenSource, "transcript": true})
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %v", status, out)
	}
	if out["success"] != true {
		t.Fatalf("fix did not succeed: %v", out)
	}
	if out["final_code"] == "" || out["transcript"] == "" {
		t.Fatal("missing final_code or transcript")
	}
	if out["coalesced"] != false {
		t.Fatal("singleton request reported coalesced")
	}
}

func TestFixDeterministicAcrossRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, first := postFix(t, ts.URL, map[string]any{"source": brokenSource})
	_, second := postFix(t, ts.URL, map[string]any{"source": brokenSource})
	if first["final_code"] != second["final_code"] || first["iterations"] != second["iterations"] {
		t.Fatal("same request, different outcome across sequential calls")
	}
}

func TestLintEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		source string
		ok     bool
	}{{cleanSource, true}, {brokenSource, false}} {
		data, _ := json.Marshal(map[string]any{"source": tc.source})
		resp, err := http.Post(ts.URL+"/v1/lint", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var out lintResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || out.Ok != tc.ok {
			t.Fatalf("lint(%q...) = %d %+v, want ok=%v", tc.source[:10], resp.StatusCode, out, tc.ok)
		}
		if !tc.ok && (out.Log == "" || out.Errors == 0) {
			t.Fatalf("failing lint carries no diagnostics: %+v", out)
		}
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body map[string]any
		want int
	}{
		{"empty source", map[string]any{"source": " "}, http.StatusBadRequest},
		{"unknown compiler", map[string]any{"source": cleanSource, "compiler": "vcs"}, http.StatusBadRequest},
		{"unknown persona", map[string]any{"source": cleanSource, "persona": "gpt-9"}, http.StatusBadRequest},
		{"bad mode", map[string]any{"source": cleanSource, "mode": "zero-shot"}, http.StatusBadRequest},
		{"negative timeout", map[string]any{"source": cleanSource, "timeout_ms": -5}, http.StatusBadRequest},
		{"unknown field", map[string]any{"source": cleanSource, "sourcecode": "x"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if status, out := postFix(t, ts.URL, tc.body); status != tc.want {
			t.Errorf("%s: status = %d (%v), want %d", tc.name, status, out, tc.want)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/fix")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/fix = %d, want 405", resp.StatusCode)
	}
}

// TestCoalescing is the thundering-herd contract: N identical concurrent
// requests cost one agent run, and every caller gets the same answer.
func TestCoalescing(t *testing.T) {
	const n = 8
	s, ts := newTestServer(t, Config{MaxInFlight: 2})
	release := make(chan struct{})
	s.testHook = func(*flight) { <-release }

	var wg sync.WaitGroup
	type reply struct {
		status int
		body   map[string]any
	}
	replies := make([]reply, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, out := postFix(t, ts.URL, map[string]any{"source": brokenSource})
			replies[i] = reply{st, out}
		}(i)
	}

	// Wait until every follower has joined the (hook-blocked) leader.
	deadline := time.Now().Add(10 * time.Second)
	for stat(t, s, "fix.coalesced") < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %v/%d requests coalesced", stat(t, s, "fix.coalesced"), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if runs := stat(t, s, "fix.agent_runs"); runs != 1 {
		t.Fatalf("agent runs = %v, want 1 for %d identical requests", runs, n)
	}
	for i, r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d (%v)", i, r.status, r.body)
		}
		if r.body["final_code"] != replies[0].body["final_code"] ||
			r.body["success"] != replies[0].body["success"] {
			t.Fatalf("request %d got a different answer", i)
		}
	}
	// The /metrics sample agrees with the /v1/stats value.
	_, raw := get(t, ts.URL+"/metrics")
	if want := fmt.Sprintf(`rtlfixer_fix_outcomes_total{outcome="coalesced"} %d`, n-1); !strings.Contains(string(raw), want) {
		t.Fatalf("metrics missing %q:\n%s", want, raw)
	}
}

// TestAdmissionOverflow is the bounded-admission contract: once
// MaxInFlight + QueueDepth requests are admitted, the next one is
// refused immediately with 429.
func TestAdmissionOverflow(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, QueueDepth: -1})
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	s.testHook = func(*flight) {
		entered <- struct{}{}
		<-release
	}
	defer close(release)

	done := make(chan struct{})
	go func() {
		defer close(done)
		status, out := postFix(t, ts.URL, map[string]any{"source": brokenSource, "seed": 1})
		if status != http.StatusOK {
			t.Errorf("admitted request finished %d (%v), want 200", status, out)
		}
	}()
	<-entered // the slot is occupied and running

	status, out := postFix(t, ts.URL, map[string]any{"source": brokenSource, "seed": 2})
	if status != http.StatusTooManyRequests {
		t.Fatalf("overflow request = %d (%v), want 429", status, out)
	}
	if got := stat(t, s, "fix.rejected_queue_full"); got != 1 {
		t.Fatalf("fix.rejected_queue_full = %v, want 1", got)
	}
	release <- struct{}{}
	<-done
	// Seeds 1 and 2 are different flight keys: the overflow request was
	// refused, not coalesced onto the running one.
	if got := stat(t, s, "fix.coalesced"); got != 0 {
		t.Fatalf("fix.coalesced = %v, want 0", got)
	}
	if got := stat(t, s, "fix.agent_runs"); got != 1 {
		t.Fatalf("fix.agent_runs = %v, want 1 (the admitted request)", got)
	}
}

// TestDeadlineExpiry: a request whose deadline passes mid-run gets a
// clean 504 while the non-preemptible run finishes in the background.
func TestDeadlineExpiry(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1})
	release := make(chan struct{})
	s.testHook = func(*flight) { <-release }

	start := time.Now()
	status, out := postFix(t, ts.URL, map[string]any{"source": brokenSource, "timeout_ms": 80})
	waited := time.Since(start)
	close(release)

	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%v), want 504", status, out)
	}
	if waited > 5*time.Second {
		t.Fatalf("504 took %v; deadline did not cut the wait", waited)
	}
	if stat(t, s, "fix.deadline_expired") == 0 {
		t.Fatal("fix.deadline_expired not incremented")
	}
	// The abandoned run still completes and releases its admission slot:
	// a follow-up request must succeed.
	if status, out := postFix(t, ts.URL, map[string]any{"source": cleanSource}); status != http.StatusOK {
		t.Fatalf("post-timeout request = %d (%v), want 200", status, out)
	}
}

// TestGracefulDrain: after BeginDrain (what SIGTERM triggers in
// rtlfixerd), new work is refused with 503 but admitted requests run to
// completion, and Drain returns once they have.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 2})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.testHook = func(*flight) {
		entered <- struct{}{}
		<-release
	}

	inFlight := make(chan struct {
		status int
		body   map[string]any
	}, 1)
	go func() {
		st, out := postFix(t, ts.URL, map[string]any{"source": brokenSource})
		inFlight <- struct {
			status int
			body   map[string]any
		}{st, out}
	}()
	<-entered // the request is mid-run

	s.BeginDrain()
	if status, _ := postFix(t, ts.URL, map[string]any{"source": cleanSource}); status != http.StatusServiceUnavailable {
		t.Fatalf("fix during drain = %d, want 503", status)
	}
	// Liveness vs routability: healthz stays 200 (the process is alive,
	// just draining) while readyz flips to 503 so balancers stop routing.
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain = %d, want 200 (liveness)", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain = %d, want 503", resp.StatusCode)
	}

	close(release)
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	r := <-inFlight
	if r.status != http.StatusOK || r.body["success"] != true {
		t.Fatalf("in-flight request after SIGTERM = %d (%v), want a completed 200", r.status, r.body)
	}
}

// TestRunsBoundedByMaxInFlight: MaxInFlight runners bound the runs
// executing at once; admitted flights beyond them wait on the queue and
// start in admission order as runners free up.
func TestRunsBoundedByMaxInFlight(t *testing.T) {
	const n = 5
	s, ts := newTestServer(t, Config{MaxInFlight: 2})
	entered := make(chan string, n)
	release := make(chan struct{})
	s.testHook = func(f *flight) {
		entered <- f.filename
		<-release
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(release)

	// Admit one request at a time so the admission order is known: the
	// first two start runs, the rest wait on the queue.
	var started []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("r%d.v", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if st, out := postFix(t, ts.URL, map[string]any{"source": cleanSource, "filename": name}); st != http.StatusOK {
				t.Errorf("%s: %d (%v)", name, st, out)
			}
		}()
		if i < 2 {
			started = append(started, <-entered)
			continue
		}
		deadline := time.Now().Add(10 * time.Second)
		for stat(t, s, "queue.depth") != float64(i-1) {
			if time.Now().After(deadline) {
				t.Fatalf("request %d was never queued", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	select {
	case name := <-entered:
		t.Fatalf("%s started a third concurrent run with MaxInFlight 2", name)
	case <-time.After(50 * time.Millisecond):
	}
	if got := stat(t, s, "queue.depth"); got != n-2 {
		t.Fatalf("queue.depth = %v, want %d", got, n-2)
	}
	for i := 2; i < n; i++ {
		release <- struct{}{} // finish one run; its runner takes the next flight
		started = append(started, <-entered)
	}
	for i, name := range started {
		if want := fmt.Sprintf("r%d.v", i); name != want {
			t.Fatalf("runs started in order %v, want admission order", started)
		}
	}
	release <- struct{}{}
	release <- struct{}{}
	wg.Wait()
	// Distinct filenames are distinct flight keys: every request ran.
	if got := stat(t, s, "fix.coalesced"); got != 0 {
		t.Fatalf("fix.coalesced = %v, want 0", got)
	}
	if got := stat(t, s, "fix.agent_runs"); got != n {
		t.Fatalf("fix.agent_runs = %v, want %d", got, n)
	}
}

func TestStatsEndpointShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postFix(t, ts.URL, map[string]any{"source": brokenSource})
	postFix(t, ts.URL, map[string]any{"source": brokenSource})
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("stats body is not a JSON object: %v", err)
	}
	if got := num(t, snap, "requests.fix"); got != 2 {
		t.Fatalf("fix requests = %v, want 2", got)
	}
	if got := num(t, snap, "latency_fix_ms.count"); got != 2 {
		t.Fatalf("fix latency count = %v, want 2", got)
	}
	if num(t, snap, "fix.agent_runs") == 0 || num(t, snap, "fixers") != 1 {
		t.Fatalf("run/fixer accounting off: %v", snap["fix"])
	}
	// Identical sequential requests share the pooled fixer's compile
	// cache; the second one must have produced hits.
	if num(t, snap, "cache.hits") == 0 {
		t.Fatal("second identical request produced no cache hits")
	}
}

// TestFixerPoolSharesConfigurations: distinct configurations get distinct
// fixers; repeats reuse them.
func TestFixerPoolSharesConfigurations(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	postFix(t, ts.URL, map[string]any{"source": cleanSource})
	postFix(t, ts.URL, map[string]any{"source": cleanSource})
	postFix(t, ts.URL, map[string]any{"source": cleanSource, "compiler": "iverilog"})
	postFix(t, ts.URL, map[string]any{"source": cleanSource, "mode": "one-shot"})
	if got := s.Fixers(); got != 3 {
		t.Fatalf("fixer pool holds %d configurations, want 3", got)
	}
}

func TestCloseAnswersQueuedWaiters(t *testing.T) {
	s := New(Config{MaxInFlight: 4, Seed: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	s.testHook = func(*flight) {
		entered <- struct{}{}
		<-release
	}
	var wg sync.WaitGroup
	statuses := make([]int, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _ = postFix(t, ts.URL, map[string]any{"source": brokenSource, "seed": 100 + i})
		}(i)
	}
	<-entered // at least one job is mid-run
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release) // let running jobs finish; Close cancels unstarted ones
	}()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, st := range statuses {
		if st != http.StatusOK && st != http.StatusServiceUnavailable {
			t.Errorf("request %d finished %d, want 200 or 503", i, st)
		}
	}
}

func TestRequestSizeLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSourceBytes: 512})
	big := fmt.Sprintf("module m;\n// %s\nendmodule\n", bytes.Repeat([]byte("x"), 1024))
	status, _ := postFix(t, ts.URL, map[string]any{"source": big})
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize source = %d, want 413", status)
	}
}

// TestFollowerSurvivesLeaderTimeout: coalescing must be transparent — a
// follower with a healthy deadline keeps the flight alive and gets its
// answer even after the leader's deadline expired before the run
// started.
func TestFollowerSurvivesLeaderTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1})
	release := make(chan struct{})
	entered := make(chan struct{}, 4)
	s.testHook = func(f *flight) {
		if f.filename == "occupier.v" {
			entered <- struct{}{}
			<-release
		}
	}

	// Occupy the single runner so the leader's flight stays queued
	// past its deadline.
	occupier := make(chan int, 1)
	go func() {
		st, _ := postFix(t, ts.URL, map[string]any{"source": cleanSource, "filename": "occupier.v"})
		occupier <- st
	}()
	<-entered

	// Leader: identical herd source, deadline that expires while queued.
	leader := make(chan int, 1)
	go func() {
		st, _ := postFix(t, ts.URL, map[string]any{"source": brokenSource, "timeout_ms": 60})
		leader <- st
	}()
	if st := <-leader; st != http.StatusGatewayTimeout {
		t.Fatalf("leader = %d, want 504 (deadline expired while queued)", st)
	}

	// Follower joins the still-queued flight with a healthy deadline.
	follower := make(chan struct {
		status int
		body   map[string]any
	}, 1)
	go func() {
		st, out := postFix(t, ts.URL, map[string]any{"source": brokenSource})
		follower <- struct {
			status int
			body   map[string]any
		}{st, out}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for stat(t, s, "fix.coalesced") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("follower never joined the leader's flight")
		}
		time.Sleep(time.Millisecond)
	}

	close(release)
	if st := <-occupier; st != http.StatusOK {
		t.Fatalf("occupier = %d, want 200", st)
	}
	r := <-follower
	if r.status != http.StatusOK || r.body["success"] != true {
		t.Fatalf("follower = %d (%v), want a successful 200: the leader's timeout must not kill the flight", r.status, r.body)
	}
	if got := stat(t, s, "fix.expired_before_run"); got != 0 {
		t.Fatalf("flight was skipped (%v expired_before_run) despite a live follower", got)
	}
}

// TestNoHeadOfLineBlocking: a fast request dispatched after a slow one
// must complete while the slow run is still executing.
func TestNoHeadOfLineBlocking(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 2})
	release := make(chan struct{})
	entered := make(chan struct{}, 4)
	s.testHook = func(f *flight) {
		if f.filename == "slow.v" {
			entered <- struct{}{}
			<-release
		}
	}
	defer close(release)

	slow := make(chan int, 1)
	go func() {
		st, _ := postFix(t, ts.URL, map[string]any{"source": brokenSource, "filename": "slow.v"})
		slow <- st
	}()
	<-entered // the slow run occupies one runner

	start := time.Now()
	st, out := postFix(t, ts.URL, map[string]any{"source": cleanSource, "filename": "fast.v"})
	if st != http.StatusOK {
		t.Fatalf("fast request behind a slow run = %d (%v), want 200", st, out)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("fast request waited %v behind the slow run", waited)
	}
	select {
	case <-slow:
		t.Fatal("slow request finished before the fast one was measured — test setup broken")
	default:
	}
	release <- struct{}{}
	if st := <-slow; st != http.StatusOK {
		t.Fatalf("slow request = %d, want 200", st)
	}
	// slow.v and fast.v are distinct flight keys: both ran.
	if got := stat(t, s, "fix.coalesced"); got != 0 {
		t.Fatalf("fix.coalesced = %v, want 0", got)
	}
	if got := stat(t, s, "fix.agent_runs"); got != 2 {
		t.Fatalf("fix.agent_runs = %v, want 2", got)
	}
}

// TestFixerPoolBounded: the pool of per-configuration fixers is capped,
// so a client sweeping max_iterations cannot leak unbounded caches.
func TestFixerPoolBounded(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	full := 0
	for i := 1; i <= maxFixerConfigs+5; i++ {
		st, out := postFix(t, ts.URL, map[string]any{"source": cleanSource, "max_iterations": i})
		switch st {
		case http.StatusOK:
		case http.StatusServiceUnavailable:
			full++
			if msg, _ := out["error"].(string); !strings.Contains(msg, "fixer pool full") {
				t.Fatalf("503 with unexpected body: %v", out)
			}
		default:
			t.Fatalf("sweep request %d = %d (%v)", i, st, out)
		}
	}
	if full != 5 {
		t.Fatalf("%d requests refused, want 5 beyond the %d-config cap", full, maxFixerConfigs)
	}
	if got := s.Fixers(); got != maxFixerConfigs {
		t.Fatalf("pool holds %d configs, want the cap %d", got, maxFixerConfigs)
	}
	// Over-limit iterations are a 400, keeping the key space finite.
	if st, _ := postFix(t, ts.URL, map[string]any{"source": cleanSource, "max_iterations": maxRequestIterations + 1}); st != http.StatusBadRequest {
		t.Fatalf("max_iterations over the clamp = %d, want 400", st)
	}
}

// latchSource is clean to the compiler frontend but dirty to the
// analyzer: y holds a latch and the sensitivity list is incomplete.
const latchSource = `module top_module (
	input sel,
	input a,
	output reg y
);
	always @(a) begin
		if (sel) y = a;
	end
endmodule
`

func TestLintStructuredFindings(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	post := func(body map[string]any) lintResponse {
		t.Helper()
		data, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+"/v1/lint", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("lint status = %d", resp.StatusCode)
		}
		var out lintResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	out := post(map[string]any{"source": latchSource})
	if !out.Ok {
		t.Fatalf("frontend-clean source reported not ok: %+v", out)
	}
	rules := map[string]int{}
	for _, f := range out.Findings {
		rules[f.Rule]++
		if f.Rule != "" && (f.Severity != "warning" || f.Line == 0 || f.Message == "") {
			t.Errorf("malformed finding: %+v", f)
		}
	}
	if rules["L001"] == 0 || rules["L002"] == 0 {
		t.Fatalf("latch/sensitivity findings missing: %v", rules)
	}

	// The toggle routes to a separate pooled fixer with the analyzer off.
	off := post(map[string]any{"source": latchSource, "analyze": false})
	if len(off.Findings) != 0 {
		t.Fatalf("analyze=false still returned findings: %+v", off.Findings)
	}
	if s.Fixers() != 2 {
		t.Fatalf("analyzer toggle did not split the fixer pool: %d fixers", s.Fixers())
	}

	if stat(t, s, "lint.findings_by_rule.L001") == 0 || stat(t, s, "lint.findings_by_rule.L002") == 0 {
		t.Fatalf("stats did not count findings by rule: %v", s.Stats()["lint"])
	}
	if _, ok := lookup(s.Stats(), "lint.findings_by_rule.L010"); !ok {
		t.Fatal("stats snapshot omits zero-count rules")
	}
}

// TestRestartServesIdenticalResponses is the in-process version of the
// smoke script's restart assertion: a fresh server, started after the
// first is closed, answers the same request byte-identically (modulo
// timing fields). All state is process-lifetime, so the second server
// recomputes what the first one cached.
func TestRestartServesIdenticalResponses(t *testing.T) {
	req := map[string]any{"source": brokenSource, "seed": int64(7)}

	s1, ts1 := newTestServer(t, Config{})
	status, first := postFix(t, ts1.URL, req)
	if status != http.StatusOK {
		t.Fatalf("first fix status = %d: %v", status, first)
	}
	ts1.Close()
	s1.Close()

	_, ts2 := newTestServer(t, Config{})
	status, again := postFix(t, ts2.URL, req)
	if status != http.StatusOK {
		t.Fatalf("restarted fix status = %d: %v", status, again)
	}
	for _, field := range []string{"success", "iterations", "final_code", "fixer_rules"} {
		a, b := fmtField(first[field]), fmtField(again[field])
		if a != b {
			t.Fatalf("field %q differs across restart:\nfirst: %v\nagain: %v", field, a, b)
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

// TestStatsReportsPerCacheLayers checks the /v1/stats breakdown: the
// aggregate cache counters equal the sum of the per-layer ones, and no
// store section is reported.
func TestStatsReportsPerCacheLayers(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if status, _ := postFix(t, ts.URL, map[string]any{"source": brokenSource}); status != http.StatusOK {
		t.Fatalf("fix status = %d", status)
	}
	doc := s.Stats()
	sum := num(t, doc, "cache.frontend.hits") + num(t, doc, "cache.compile.hits") + num(t, doc, "cache.sim.hits") + num(t, doc, "cache.trace.hits") + num(t, doc, "cache.retrieval.hits") + num(t, doc, "cache.reads.hits")
	if hits := num(t, doc, "cache.hits"); hits != sum {
		t.Fatalf("aggregate hits %v != per-layer sum %v", hits, sum)
	}
	if _, ok := doc["store"]; ok {
		t.Fatal("stats must not carry a store section")
	}
}
