// Live metrics for the fix service. Every family is declared once, in
// declareMetrics, with its Prometheus name and help, kind, labels, and
// /v1/stats path (metrics.Registry); GET /metrics and GET /v1/stats both
// render from that registry, so the two surfaces cannot drift. Handlers
// hold the returned handles and pay one atomic add per increment — the
// monitoring plane never contends with the serving plane.
package server

import (
	"net/http"
	"strconv"

	"repro/internal/analyze"
	"repro/internal/fault"
	"repro/internal/memo"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// statusCodes are the statuses the service can emit; anything else lands
// in the "other" series.
var statusCodes = []int{200, 400, 404, 405, 413, 429, 500, 502, 503, 504}

// liveMetrics holds the handles the serving path updates; each one is
// returned by its family's declaration in declareMetrics.
type liveMetrics struct {
	fixRequests, lintRequests, healthzRequests, readyzRequests, statsRequests *metrics.Counter

	status      []*metrics.Counter // parallel to statusCodes
	statusOther *metrics.Counter

	fixOK, fixFailed, coalesced, agentRuns                                 *metrics.Counter
	expiredBeforeRun, deadlineExpired, rejectedQueueFull, rejectedDraining *metrics.Counter

	queueDepth, inFlight    *metrics.Gauge
	fixLatency, lintLatency *metrics.Histogram

	// findings counts analyzer findings served through /v1/lint by rule
	// code; the key set is the static rule registry, so the counters are
	// lock-free, and codes outside it land in findingsOther.
	findings      map[string]*metrics.Counter
	findingsOther *metrics.Counter

	// Post-fix simulation smoke-check outcomes (simcheck.go); each check
	// counts exactly one, so attempted checks are their sum.
	simPassed, simFailed, simSkipped, simWatchdog *metrics.Counter

	// Resilience plane: recovered panics by bulkhead and brownout
	// shedding.
	panicsHTTP, panicsWorker             *metrics.Counter
	brownoutLintShed, brownoutTracesShed *metrics.Counter
}

func (m *liveMetrics) countStatus(code int) {
	for i, c := range statusCodes {
		if c == code {
			m.status[i].Inc()
			return
		}
	}
	m.statusOther.Inc()
}

func (m *liveMetrics) countFinding(rule string) {
	if c, ok := m.findings[rule]; ok {
		c.Inc()
		return
	}
	m.findingsOther.Inc()
}

// declareMetrics declares every family the server exports, in /metrics
// order. This is the only place a family's name, help, kind, labels and
// /v1/stats path are written. With tracing off its families are not
// declared and appear on neither surface; their /v1/stats form is the
// trace document section (Stats).
func (s *Server) declareMetrics() {
	r, m := &s.reg, &s.m
	m.fixRequests = r.Counter("rtlfixer_fix_requests_total", "Fix requests received.", "requests.fix")
	m.lintRequests = r.Counter("rtlfixer_lint_requests_total", "Lint requests received.", "requests.lint")
	m.healthzRequests = r.Counter("rtlfixer_healthz_requests_total", "Health checks received.", "requests.healthz")
	m.readyzRequests = r.Counter("rtlfixer_readyz_requests_total", "Readiness checks received.", "requests.readyz")
	m.statsRequests = r.Counter("rtlfixer_stats_requests_total", "Stats requests received.", "requests.stats")

	status := r.CounterVec("rtlfixer_http_responses_total", "HTTP responses by status code.", "code")
	for _, code := range statusCodes {
		c := strconv.Itoa(code)
		m.status = append(m.status, status.Sparse("status."+c, c))
	}
	m.statusOther = status.Sparse("status.other", "other")

	outcomes := r.CounterVec("rtlfixer_fix_outcomes_total", "Fix request outcomes.", "outcome")
	outcome := func(o string) *metrics.Counter { return outcomes.Counter("fix."+o, o) }
	m.fixOK, m.fixFailed, m.coalesced = outcome("ok"), outcome("failed"), outcome("coalesced")
	m.expiredBeforeRun, m.deadlineExpired = outcome("expired_before_run"), outcome("deadline_expired")
	m.rejectedQueueFull, m.rejectedDraining = outcome("rejected_queue_full"), outcome("rejected_draining")
	m.agentRuns = r.Counter("rtlfixer_agent_runs_total", "Agent debugging loops executed.", "fix.agent_runs")

	m.queueDepth = r.Gauge("rtlfixer_queue_depth", "Admitted fix requests not yet running.", "queue.depth")
	m.inFlight = r.Gauge("rtlfixer_in_flight", "Agent runs executing now.", "queue.in_flight")
	r.Flag("rtlfixer_draining", "1 while the server refuses new fix work.", "queue.draining", s.isDraining)
	r.GaugeFunc("rtlfixer_uptime_seconds", "Seconds since the server started.", "", func() float64 { return msSince(s.start) / 1000 })
	r.Derived("uptime_ms", func() float64 { return msSince(s.start) }) // the same clock, in ms
	r.GaugeFunc("rtlfixer_fixer_configs", "Distinct pooled fixer configurations.", "fixers", func() float64 { return float64(s.Fixers()) })

	m.fixLatency = r.Histogram("rtlfixer_fix_latency_ms", "Fix request latency, milliseconds.", "latency_fix_ms", metrics.NewLatencyHistogram())
	m.lintLatency = r.Histogram("rtlfixer_lint_latency_ms", "Lint request latency, milliseconds.", "latency_lint_ms", metrics.NewLatencyHistogram())

	declareCacheMetrics(r)

	findings := r.CounterVec("rtlfixer_lint_findings_total", "Analyzer findings served via /v1/lint, by rule.", "rule")
	m.findings = make(map[string]*metrics.Counter, len(analyze.Rules()))
	for _, rule := range analyze.Rules() {
		m.findings[rule.Code] = findings.Counter("lint.findings_by_rule."+rule.Code, rule.Code)
	}
	m.findingsOther = findings.Sparse("lint.findings_by_rule.other", "other")

	results := r.CounterVec("rtlfixer_sim_checks_total", "Post-fix simulation smoke checks by result.", "result")
	result := func(res string) *metrics.Counter { return results.Counter("sim_check."+res, res) }
	m.simPassed, m.simFailed, m.simSkipped, m.simWatchdog = result("passed"), result("failed"), result("skipped"), result("watchdog")
	r.CounterFunc("rtlfixer_sim_checks_attempted_total", "Post-fix simulation smoke checks attempted (the sum over results).", "sim_check.checked", func() float64 {
		return float64(m.simPassed.Value() + m.simFailed.Value() + m.simSkipped.Value() + m.simWatchdog.Value())
	})
	r.GaugeFunc("rtlfixer_sim_toggle_coverage", "Toggle+activation coverage fraction of the latest observed sim check.", "", s.simObs.reader((*simObs).lastFraction))
	r.CounterFunc("rtlfixer_sim_observed_runs_total", "Sim smoke checks run with coverage observation attached.", "", s.simObs.reader(func(o *simObs) float64 { return float64(o.runs) }))
	r.CounterFunc("rtlfixer_sim_toggles_total", "Signal bit-toggle events across observed sim checks.", "", s.simObs.reader(func(o *simObs) float64 { return float64(o.toggles) }))
	r.CounterFunc("rtlfixer_sim_instructions_total", "Compiled-engine instructions executed across observed sim checks.", "", s.simObs.reader(func(o *simObs) float64 { return float64(o.instructions) }))

	panics := r.CounterVec("rtlfixer_panics_recovered_total", "Panics recovered by bulkhead site.", "site")
	m.panicsHTTP, m.panicsWorker = panics.Counter("resilience.panics_http", "http"), panics.Counter("resilience.panics_worker", "worker")
	shed := r.CounterVec("rtlfixer_brownout_shed_total", "Best-effort work shed under overload, by surface.", "surface")
	m.brownoutLintShed = shed.Counter("resilience.brownout_lint_shed", "lint")
	m.brownoutTracesShed = shed.Counter("resilience.brownout_traces_shed", "trace")
	r.Flag("rtlfixer_ready", "1 once the server passes /v1/readyz gating (prewarm done, not draining).", "resilience.ready",
		func() bool { return s.readiness() == "ready" })

	if s.stages != nil {
		r.HistogramsFunc("rtlfixer_stage_duration_ms", "Span durations per pipeline stage, milliseconds.", func() []metrics.PromHistSeries {
			snap := s.stages.Snapshot()
			series := make([]metrics.PromHistSeries, 0, len(snap))
			for _, stage := range trace.StageNames(snap) {
				series = append(series, metrics.PromHistSeries{
					Labels: []metrics.PromLabel{{Name: "stage", Value: stage}},
					Snap:   snap[stage],
				})
			}
			return series
		})
	}
	if t := s.tracer; t != nil {
		occ := func(get func(trace.Occupancy) float64) func() float64 {
			return func() float64 { return get(t.Occupancy()) }
		}
		r.CounterFunc("rtlfixer_traces_collected_total", "Request traces finished and collected.", "", occ(func(o trace.Occupancy) float64 { return float64(o.Collected) }))
		r.GaugeFunc("rtlfixer_trace_ring_occupancy", "Traces held in the recent-trace ring.", "", occ(func(o trace.Occupancy) float64 { return float64(o.Ring) }))
		r.GaugeFunc("rtlfixer_trace_ring_capacity", "Capacity of the recent-trace ring.", "", occ(func(o trace.Occupancy) float64 { return float64(o.RingCap) }))
		r.GaugeFunc("rtlfixer_trace_slow_retained", "Slow traces retained past ring eviction.", "", occ(func(o trace.Occupancy) float64 { return float64(o.Slow) }))
	}
}

// declareCacheMetrics mirrors the process-wide memoization counters
// behind every pooled fixer (memo.TotalsByKind) per cache layer, so
// each layer's effectiveness is observable on its own; /v1/stats also keeps
// the all-layer totals under "cache".
func declareCacheMetrics(r *metrics.Registry) {
	events := [][2]string{{"hit", "hits"}, {"miss", "misses"}, {"eviction", "evictions"}}
	count := func(s memo.Stats, event int) float64 {
		return float64([]uint64{s.Hits, s.Misses, s.Evictions}[event])
	}
	layers := []struct {
		name  string
		stats func(memo.KindTotals) memo.Stats
	}{
		{"frontend", func(t memo.KindTotals) memo.Stats { return t.Frontend }},
		{"compile", func(t memo.KindTotals) memo.Stats { return t.Compile }},
		{"sim", func(t memo.KindTotals) memo.Stats { return t.Sim }},
		{"trace", func(t memo.KindTotals) memo.Stats { return t.Trace }},
		{"retrieval", func(t memo.KindTotals) memo.Stats { return t.Retrieval }},
		{"reads", func(t memo.KindTotals) memo.Stats { return t.Reads }},
	}
	vec := r.CounterVec("rtlfixer_cache_events_total", "Memoization events by cache layer.", "layer", "event")
	for _, l := range layers {
		for event, e := range events {
			vec.Func("cache."+l.name+"."+e[1], func() float64 {
				return count(l.stats(memo.TotalsByKind()), event)
			}, l.name, e[0])
		}
	}
	for event, e := range events {
		r.Derived("cache."+e[1], func() float64 { return count(memo.Totals(), event) })
	}
}

// Stats renders the GET /v1/stats document: every registry family at its
// path, plus the sections that are documents rather than metric
// families — the queue configuration, fault injection counters, the sim-layer aggregate, the per-stage latency
// breakdown, and trace occupancy.
func (s *Server) Stats() map[string]any {
	doc := s.reg.JSON()
	metrics.SetPath(doc, "queue.max_in_flight", s.cfg.MaxInFlight)
	metrics.SetPath(doc, "queue.queue_depth", s.cfg.QueueDepth)
	if f := fault.Snapshot(); len(f) > 0 {
		doc["faults"] = f
	}
	doc["sim"] = s.simObs.snapshot()
	if st := s.stages.Snapshot(); len(st) > 0 {
		// Keys marshal in pipeline order (trace.StageNames), matching the
		// attribution table loadgen -stages renders from this section.
		doc["stages"] = trace.OrderedStages(st)
	}
	if s.tracer != nil {
		doc["trace"] = s.tracer.Occupancy()
	}
	return doc
}

// handleStats serves GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.m.statsRequests.Inc()
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}
