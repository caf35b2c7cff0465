package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestFixRequestTraceTree is the acceptance gate: a real /v1/fix run
// with tracing on must yield a retrievable span tree covering
// admission → queue → run → agent iterations → compile, plus the
// post-fix sim check, under a "fix" root.
func TestFixRequestTraceTree(t *testing.T) {
	c := trace.NewCollector(0, 0, 0)
	_, ts := newTestServer(t, Config{Tracing: c})
	status, out := postFix(t, ts.URL, map[string]any{"source": brokenSource})
	if status != http.StatusOK || out["success"] != true {
		t.Fatalf("fix failed: %d %v", status, out)
	}

	resp, raw := get(t, ts.URL+"/v1/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace list status = %d", resp.StatusCode)
	}
	var list traceListResponse
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatalf("trace list: %v\n%s", err, raw)
	}
	if !list.Enabled || len(list.Traces) == 0 {
		t.Fatalf("no traces listed: %+v", list)
	}
	var fixID string
	for _, s := range list.Traces {
		if s.Root == "fix" {
			fixID = s.ID
			break
		}
	}
	if fixID == "" {
		t.Fatalf("no fix trace among %+v", list.Traces)
	}

	resp, raw = get(t, ts.URL+"/v1/trace/"+fixID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace get status = %d: %s", resp.StatusCode, raw)
	}
	var tree trace.TraceJSON
	if err := json.Unmarshal(raw, &tree); err != nil {
		t.Fatalf("trace tree: %v", err)
	}
	if tree.Root.Name != "fix" {
		t.Fatalf("root = %q, want fix", tree.Root.Name)
	}
	counts := map[string]int{}
	var walk func(sp trace.SpanJSON)
	walk = func(sp trace.SpanJSON) {
		counts[sp.Name]++
		for _, ch := range sp.Children {
			walk(ch)
		}
	}
	walk(tree.Root)
	for _, stage := range []string{"admission", "queue", "wait", "run", "agent", "iteration", "compile", "sim"} {
		if counts[stage] == 0 {
			t.Fatalf("trace missing %q span; got %v", stage, counts)
		}
	}
	if id, ok := tree.Root.Attrs["request_id"].(string); !ok || id == "" {
		t.Fatalf("fix root has no request_id attr: %v", tree.Root.Attrs)
	}

	// Unknown IDs are a clean 404.
	resp, _ = get(t, ts.URL+"/v1/trace/t-999999")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing trace status = %d, want 404", resp.StatusCode)
	}
}

// TestTraceDisabled: without a collector the endpoints answer cleanly
// and cheaply rather than 500ing.
func TestTraceDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := get(t, ts.URL+"/v1/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace list status = %d", resp.StatusCode)
	}
	var list traceListResponse
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	if list.Enabled || len(list.Traces) != 0 {
		t.Fatalf("disabled tracing listed traces: %+v", list)
	}
	resp, _ = get(t, ts.URL+"/v1/trace/t-000001")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace get status = %d, want 404", resp.StatusCode)
	}
}

// TestMetricsEndpoint scrapes /metrics after real traffic and checks
// the exposition parses, carries the TYPE headers the smoke script
// greps, and reflects the served requests.
func TestMetricsEndpoint(t *testing.T) {
	c := trace.NewCollector(0, 0, 0)
	_, ts := newTestServer(t, Config{Tracing: c})
	if status, _ := postFix(t, ts.URL, map[string]any{"source": brokenSource}); status != http.StatusOK {
		t.Fatal("fix failed")
	}

	resp, raw := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != metrics.PromContentType {
		t.Fatalf("content type = %q", got)
	}
	text := string(raw)
	for _, want := range []string{
		"# TYPE rtlfixer_fix_requests_total counter",
		"# TYPE rtlfixer_fix_latency_ms histogram",
		"# TYPE rtlfixer_stage_duration_ms histogram",
		"# TYPE rtlfixer_queue_depth gauge",
		`rtlfixer_fix_outcomes_total{outcome="ok"} 1`,
		"rtlfixer_fix_requests_total 1",
		`rtlfixer_http_responses_total{code="200"}`,
		`rtlfixer_fix_latency_ms_bucket{le="+Inf"} 1`,
		`rtlfixer_stage_duration_ms_bucket{stage="compile",le="+Inf"}`,
		`rtlfixer_cache_events_total{layer="compile",event="hit"}`,
		"rtlfixer_traces_collected_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	// Every non-comment line must be "name[{labels}] value".
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.LastIndexByte(line, ' ') <= 0 {
			t.Fatalf("malformed sample line %q", line)
		}
	}
}

// TestRequestIDPropagation: an incoming X-Request-ID is echoed; absent
// one, the server assigns and echoes its own, and the access log (when
// configured) carries it.
func TestRequestIDPropagation(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	_, ts := newTestServer(t, Config{AccessLog: logger})

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/healthz", nil)
	req.Header.Set("X-Request-ID", "caller-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-7" {
		t.Fatalf("echoed id = %q, want caller-7", got)
	}

	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	assigned := resp.Header.Get("X-Request-ID")
	if !strings.HasPrefix(assigned, "r-") {
		t.Fatalf("assigned id = %q, want r- prefix", assigned)
	}

	logs := logBuf.String()
	for _, want := range []string{`"id":"caller-7"`, `"id":"` + assigned + `"`, `"path":"/v1/healthz"`, `"status":200`} {
		if !strings.Contains(logs, want) {
			t.Fatalf("access log missing %s:\n%s", want, logs)
		}
	}
}

// TestHealthzBuildInfoAndTrace: the health body reports build info and,
// with tracing on, collector occupancy.
func TestHealthzBuildInfoAndTrace(t *testing.T) {
	c := trace.NewCollector(8, 0, time.Hour)
	_, ts := newTestServer(t, Config{Tracing: c})
	if status, _ := postFix(t, ts.URL, map[string]any{"source": brokenSource}); status != http.StatusOK {
		t.Fatal("fix failed")
	}
	resp, raw := get(t, ts.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var body map[string]any
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	build, ok := body["build"].(map[string]any)
	if !ok || build["go"] == "" || build["module"] != "repro" {
		t.Fatalf("bad build info: %v", body["build"])
	}
	tr, ok := body["trace"].(map[string]any)
	if !ok {
		t.Fatalf("healthz missing trace occupancy: %v", body)
	}
	if tr["collected"].(float64) < 1 || tr["ring"].(float64) < 1 {
		t.Fatalf("occupancy not reflecting the fix trace: %v", tr)
	}
}

// TestStatsCarriesStagesAndSimCheck: /v1/stats grows the stage
// breakdown and sim-check counters the loadgen table consumes.
func TestStatsCarriesStagesAndSimCheck(t *testing.T) {
	c := trace.NewCollector(0, 0, 0)
	s, ts := newTestServer(t, Config{Tracing: c})
	if status, _ := postFix(t, ts.URL, map[string]any{"source": brokenSource}); status != http.StatusOK {
		t.Fatal("fix failed")
	}
	snap := s.Stats()
	if got := stat(t, s, "sim_check.checked"); got != 1 {
		t.Fatalf("sim checks = %v, want 1 checked", snap["sim_check"])
	}
	if stat(t, s, "sim_check.passed")+stat(t, s, "sim_check.failed")+stat(t, s, "sim_check.skipped") != 1 {
		t.Fatalf("sim check outcome unaccounted: %v", snap["sim_check"])
	}
	if occ, ok := snap["trace"].(trace.Occupancy); !ok || occ.Collected == 0 {
		t.Fatalf("stats missing trace occupancy: %v", snap["trace"])
	}
	stages, _ := snap["stages"].(trace.OrderedStages)
	for _, stage := range []string{"fix", "queue", "agent", "compile"} {
		if stages[stage].Count == 0 {
			t.Fatalf("stage %q absent from stats: %v", stage, snap["stages"])
		}
	}
	// And it round-trips through the wire form loadgen reads.
	var wire struct {
		Stages map[string]metrics.HistogramSnapshot `json:"stages"`
	}
	_, raw := get(t, ts.URL+"/v1/stats")
	if err := json.Unmarshal(raw, &wire); err != nil {
		t.Fatal(err)
	}
	if wire.Stages["compile"].Count == 0 {
		t.Fatalf("wire stages missing compile: %v", wire.Stages)
	}
	if table := trace.RenderStageTable(wire.Stages); !strings.Contains(table, "compile") {
		t.Fatalf("stage table missing compile:\n%s", table)
	}
}

// TestStatsSimObservability: a successful fix leaves nonzero toggle
// coverage in the /v1/stats "sim" section and the rtlfixer_sim_*
// families on /metrics — the serving half of the wave-layer acceptance
// gate.
func TestStatsSimObservability(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if status, _ := postFix(t, ts.URL, map[string]any{"source": brokenSource}); status != http.StatusOK {
		t.Fatal("fix failed")
	}
	sim, _ := s.Stats()["sim"].(*SimObsSnapshot)
	if sim == nil {
		t.Fatal("stats missing sim observability section")
	}
	if sim.Runs == 0 || sim.Samples == 0 {
		t.Fatalf("sim check ran unobserved: %+v", sim)
	}
	// The smoke check pulses the clock, so at minimum clk rose and fell
	// and the sequential process fired.
	if sim.Toggles == 0 || sim.LastCoveredPoints == 0 || sim.LastFraction <= 0 {
		t.Fatalf("zero toggle coverage from a clocked smoke check: %+v", sim)
	}
	if sim.LastProcsActive == 0 {
		t.Fatalf("no process activations recorded: %+v", sim)
	}
	// The fixed design compiles, so the engine profile must be live too.
	if sim.Instructions == 0 || sim.Settles == 0 || len(sim.TopOps) == 0 {
		t.Fatalf("compiled-engine profile empty: %+v", sim)
	}

	// Wire form: the "sim" key is present with the same numbers.
	var wire struct {
		Sim *SimObsSnapshot `json:"sim"`
	}
	_, raw := get(t, ts.URL+"/v1/stats")
	if err := json.Unmarshal(raw, &wire); err != nil {
		t.Fatal(err)
	}
	if wire.Sim == nil || wire.Sim.Runs != sim.Runs {
		t.Fatalf("wire sim section = %+v, want runs %d", wire.Sim, sim.Runs)
	}

	_, raw = get(t, ts.URL+"/metrics")
	text := string(raw)
	for _, want := range []string{
		"# TYPE rtlfixer_sim_toggle_coverage gauge",
		"rtlfixer_sim_observed_runs_total 1",
		"rtlfixer_sim_toggles_total",
		"rtlfixer_sim_instructions_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	// The gauge must be a parseable nonzero fraction.
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "rtlfixer_sim_toggle_coverage ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, "rtlfixer_sim_toggle_coverage "), 64)
		if err != nil || v <= 0 || v > 1 {
			t.Fatalf("bad coverage gauge %q: %v", line, err)
		}
		return
	}
	t.Fatal("rtlfixer_sim_toggle_coverage sample line absent")
}

// TestStagesJSONPipelineOrder: the /v1/stats "stages" object must
// marshal its keys in pipeline order (trace.StageNames), not Go's
// alphabetical map order, so the JSON reads like the attribution table.
func TestStagesJSONPipelineOrder(t *testing.T) {
	c := trace.NewCollector(0, 0, 0)
	_, ts := newTestServer(t, Config{Tracing: c})
	if status, _ := postFix(t, ts.URL, map[string]any{"source": brokenSource}); status != http.StatusOK {
		t.Fatal("fix failed")
	}
	var wire struct {
		Stages json.RawMessage `json:"stages"`
	}
	_, raw := get(t, ts.URL+"/v1/stats")
	if err := json.Unmarshal(raw, &wire); err != nil {
		t.Fatal(err)
	}
	var stages map[string]metrics.HistogramSnapshot
	if err := json.Unmarshal(wire.Stages, &stages); err != nil {
		t.Fatal(err)
	}
	want := trace.StageNames(stages)
	if len(want) < 5 {
		t.Fatalf("too few stages to check ordering: %v", want)
	}
	// Histogram snapshot values never contain stage-name keys, so the
	// first occurrence of each `"name":` marks its position.
	text := string(wire.Stages)
	last := -1
	for _, name := range want {
		idx := strings.Index(text, `"`+name+`":`)
		if idx < 0 {
			t.Fatalf("stage %q absent from stages JSON", name)
		}
		if idx <= last {
			t.Fatalf("stages JSON out of pipeline order at %q; want %v in:\n%s", name, want, text)
		}
		last = idx
	}
}

// TestConcurrentMetricsScrapes races /metrics and /v1/stats scrapes
// against live fix traffic — under -race this is the data-race gate for
// the whole monitoring plane, including the new sim family.
func TestConcurrentMetricsScrapes(t *testing.T) {
	_, ts := newTestServer(t, Config{Tracing: trace.NewCollector(0, 0, 0)})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			src := brokenSource
			if n%2 == 0 {
				src = cleanSource
			}
			for j := 0; j < 3; j++ {
				postFix(t, ts.URL, map[string]any{"source": src})
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				resp, _ := get(t, ts.URL+"/metrics")
				if resp.StatusCode != http.StatusOK {
					t.Errorf("metrics status = %d", resp.StatusCode)
				}
				resp, _ = get(t, ts.URL+"/v1/stats")
				if resp.StatusCode != http.StatusOK {
					t.Errorf("stats status = %d", resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	// After the dust settles the sim family reflects the observed runs.
	_, raw := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(raw), "rtlfixer_sim_observed_runs_total") {
		t.Fatal("sim family absent after concurrent traffic")
	}
}

// TestSurfaceParity: after one fix and one lint, every registry family
// renders on /metrics with its HELP and TYPE lines and, at each of its
// paths, on /v1/stats. That covers the two families /metrics once
// lacked, the readyz request counter and the attempted sim checks, whose
// values must agree across the surfaces.
func TestSurfaceParity(t *testing.T) {
	s, ts := newTestServer(t, Config{Tracing: trace.NewCollector(0, 0, 0)})
	if status, _ := postFix(t, ts.URL, map[string]any{"source": brokenSource}); status != http.StatusOK {
		t.Fatal("fix failed")
	}
	resp, err := http.Post(ts.URL+"/v1/lint", "application/json", strings.NewReader(`{"source":"module m;\nendmodule\n"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	get(t, ts.URL+"/v1/readyz")

	_, raw := get(t, ts.URL+"/metrics")
	prom := string(raw)
	_, raw = get(t, ts.URL+"/v1/stats")
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	fams := s.reg.Families()
	if got := strings.Count(prom, "# TYPE "); got != len(fams) {
		t.Fatalf("/metrics renders %d families, the registry declares %d", got, len(fams))
	}
	for _, f := range fams {
		for _, line := range []string{"# HELP " + f.Name + " " + f.Help + "\n", "# TYPE " + f.Name + " " + string(f.Kind) + "\n"} {
			if !strings.Contains(prom, line) {
				t.Errorf("/metrics lacks %q", line)
			}
		}
		for _, path := range f.Paths {
			if _, ok := lookup(doc, path); !ok {
				t.Errorf("family %s: /v1/stats has no %q", f.Name, path)
			}
		}
	}
	for path, sample := range map[string]string{
		"requests.readyz":   "rtlfixer_readyz_requests_total 1\n",
		"sim_check.checked": "rtlfixer_sim_checks_attempted_total 1\n",
	} {
		if !strings.Contains(prom, sample) {
			t.Errorf("/metrics lacks %q", sample)
		}
		if got := num(t, doc, path); got != 1 {
			t.Errorf("/v1/stats %s = %v, want 1", path, got)
		}
	}
}

// TestSimCheckPanicCountsOnce: a sim check that panics after reaching
// its verdict — here in the deferred coverage fold — is isolated and
// counts exactly one outcome, skipped, so the attempted total still
// equals the sum of the results.
func TestSimCheckPanicCountsOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.simObs.ops = nil // the fold's write into the op tally now panics
	status, out := postFix(t, ts.URL, map[string]any{"source": brokenSource})
	if status != http.StatusOK || out["success"] != true {
		t.Fatalf("fix = %d %v; a sim-check panic must not fail the request", status, out)
	}
	doc := s.Stats()
	for path, want := range map[string]float64{
		"sim_check.checked": 1, "sim_check.skipped": 1,
		"sim_check.passed": 0, "sim_check.failed": 0, "sim_check.watchdog": 0,
	} {
		if got := num(t, doc, path); got != want {
			t.Errorf("%s = %v, want %v (sim_check %v)", path, got, want, doc["sim_check"])
		}
	}
}
