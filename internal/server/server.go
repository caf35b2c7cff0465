// Package server is the long-running fix service: a JSON HTTP API over
// one shared pool of core.RTLFixer instances, so the compile cache and
// retrieval index built for one request serve every later request.
//
// The serving spine borrows the admission-control / continuous-monitoring
// shape of the DAQ systems in PAPERS.md:
//
//   - Bounded admission — at most MaxInFlight running plus QueueDepth
//     waiting requests are admitted; everything beyond that is refused
//     immediately with 429 rather than queued without bound.
//   - Single-flight coalescing — identical (configuration, filename,
//     source-hash, seed) requests arriving together share one agent run:
//     a thundering herd costs one run, and every waiter gets the result.
//   - Runners — MaxInFlight long-lived goroutines take admitted
//     requests off a FIFO queue one at a time; each request is answered
//     the moment its own run completes.
//   - Per-request deadlines — every request carries a deadline
//     (timeout_ms, clamped to server bounds); expiry answers 504 while
//     the non-preemptible agent run finishes in the background and still
//     warms the cache.
//   - Graceful drain — BeginDrain refuses new work with 503 while
//     admitted requests run to completion; Drain waits for them.
//
// The resilience plane (resilience.go) hardens that spine: handler and
// worker panics are recovered into typed 500s, overload browns out
// best-effort surfaces (lint, tracing) before fix traffic, and
// /v1/readyz separates routability (drain, warm-up) from /v1/healthz
// liveness.
//
// Endpoints: POST /v1/fix, POST /v1/lint, GET /v1/healthz,
// GET /v1/readyz, GET /v1/stats.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/fault"
	"repro/internal/memo"
	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/trace"
)

// Config tunes the service. The zero value is usable: every field has a
// serving-sensible default.
type Config struct {
	// Seed is the base seed shared by every pooled fixer; a request's
	// own seed selects the problem instance (core.RTLFixer.Fix's
	// sampleSeed), so one daemon is reproducible end to end.
	Seed int64
	// MaxInFlight bounds concurrently running fix requests; <= 0 means
	// 2 x NumCPU.
	MaxInFlight int
	// QueueDepth bounds admitted-but-waiting fix requests beyond
	// MaxInFlight; < 0 means 0, 0 means the default 64.
	QueueDepth int
	// DefaultTimeout applies when a request carries no timeout_ms;
	// <= 0 means 30s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps request deadlines; <= 0 means 2m.
	MaxTimeout time.Duration
	// MaxSourceBytes bounds request source size; <= 0 means 1 MiB.
	MaxSourceBytes int
	// Logf, when non-nil, receives one line per lifecycle event
	// (start/drain) — never one per request.
	Logf func(format string, args ...any)
	// Tracing, when non-nil, collects one span tree per request: the
	// whole path (admission → queue → run → agent iterations → compile/
	// rag/llm, plus the post-fix sim check) is recorded and served at
	// GET /v1/trace (recent list) and GET /v1/trace/{id} (full tree).
	// Nil disables tracing: the no-op span chain keeps every hot path
	// allocation-free and responses byte-identical.
	Tracing *trace.Collector
	// AccessLog, when non-nil, receives one structured record per HTTP
	// request (request id, method, path, status, duration). Request IDs
	// honor an incoming X-Request-ID header and are echoed back on the
	// response either way.
	AccessLog *slog.Logger
	// Prewarm builds the default fixer configuration in the background at
	// startup; /v1/readyz answers 503 "warming" until it is pooled, so a
	// fleet's load balancer only routes to daemons whose first request
	// will not pay index construction. Off by default (tests and
	// single-shot tools want a synchronously-ready server).
	Prewarm bool
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.NumCPU()
	}
	switch {
	case c.QueueDepth < 0:
		c.QueueDepth = 0
	case c.QueueDepth == 0:
		c.QueueDepth = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 1 << 20
	}
	return c
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// fixerKey identifies one pooled fixer configuration.
type fixerKey struct {
	compiler string
	persona  string
	mode     core.Mode
	rag      bool
	iters    int
	analyze  bool
}

// Server is the fix service. It implements http.Handler; wire it into an
// http.Server (cmd/rtlfixerd does) or httptest (the tests do).
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	start time.Time
	// reg declares every exported metric family (stats.go); m holds the
	// live handles the serving path updates.
	reg metrics.Registry
	m   liveMetrics

	// fixers pools one core.RTLFixer per configuration, lazily built, so
	// every request against the same configuration shares its compile
	// cache and retrieval index.
	fixersMu sync.Mutex
	fixers   map[fixerKey]*core.RTLFixer

	// Admission + dispatch state lives in dispatch.go.
	admitMu   sync.RWMutex // guards draining and sends into queue
	draining  bool
	queue     chan *flight
	admitted  chan struct{} // capacity = MaxInFlight + QueueDepth
	runnersWG sync.WaitGroup

	flightsMu sync.Mutex
	flights   map[flightKey]*flight
	flightWG  sync.WaitGroup

	stop           chan struct{} // closed by Close: cancels queued work
	stopOnce       sync.Once
	queueCloseOnce sync.Once

	// testHook, when non-nil, runs at the start of every agent run (test
	// seam for blocking runs; set before serving traffic).
	testHook func(f *flight)

	// Resilience plane (resilience.go): the prewarm latch readiness
	// gates on, and the admission-fill mark past which best-effort
	// surfaces brown out.
	prewarmed  atomic.Bool
	brownoutAt int

	// Observability plane. tracer aliases cfg.Tracing (nil = off);
	// stages folds finished traces into per-stage latency histograms
	// for /metrics, /v1/stats, and the loadgen breakdown table.
	tracer *trace.Collector
	stages *trace.StageAgg
	// simCache backs the post-fix simulation smoke check (simcheck.go),
	// shared across requests like the fixer pool's caches.
	simCache *memo.SimCache
	// simObs aggregates sim-check coverage and engine profiles
	// (simobs.go).
	simObs *simObs
	// reqSeq numbers requests that arrive without an X-Request-ID.
	reqSeq atomic.Uint64
}

// New builds and starts a server (its MaxInFlight runner goroutines run
// until Close or Drain).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		start:    time.Now(),
		fixers:   map[fixerKey]*core.RTLFixer{},
		queue:    make(chan *flight, cfg.MaxInFlight+cfg.QueueDepth),
		admitted: make(chan struct{}, cfg.MaxInFlight+cfg.QueueDepth),
		flights:  map[flightKey]*flight{},
		stop:     make(chan struct{}),
		simCache: memo.NewSimCache(0),
		simObs:   newSimObs(),
	}
	s.brownoutAt = int(brownoutFill * float64(cfg.MaxInFlight+cfg.QueueDepth))
	if s.brownoutAt < 1 {
		s.brownoutAt = 1
	}
	s.tracer = cfg.Tracing
	if s.tracer != nil {
		s.stages = trace.NewStageAgg()
		s.tracer.SetOnFinish(s.stages.Observe)
	}
	s.declareMetrics()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/fix", s.handleFix)
	s.mux.HandleFunc("/v1/lint", s.handleLint)
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/readyz", s.handleReadyz)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/trace", s.handleTraceList)
	s.mux.HandleFunc("/v1/trace/", s.handleTraceGet)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	if cfg.Prewarm {
		go s.prewarm()
	} else {
		s.prewarmed.Store(true)
	}
	s.runnersWG.Add(cfg.MaxInFlight)
	for i := 0; i < cfg.MaxInFlight; i++ {
		go s.runner()
	}
	return s
}

// requestIDKey carries the per-request ID on the request context.
type requestIDKey struct{}

// requestID returns the ID ServeHTTP assigned to this request ("" for
// requests not routed through ServeHTTP, e.g. direct handler tests).
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// ServeHTTP implements http.Handler: it assigns (or propagates) the
// request ID, echoes it as a response header, records per-status
// counters, and emits one structured access-log record when configured.
// It is also the process's handler-panic bulkhead: a panicking handler
// is recovered into a typed 500 (when nothing was written yet) and a
// counter, and the daemon keeps serving.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	id := r.Header.Get("X-Request-ID")
	if id == "" {
		id = fmt.Sprintf("r-%06d", s.reqSeq.Add(1))
	}
	w.Header().Set("X-Request-ID", id)
	r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id))
	rec := &statusRecorder{ResponseWriter: w}
	func() {
		defer func() {
			if rv := recover(); rv != nil {
				pe := resilience.Recovered("http", rv)
				s.m.panicsHTTP.Inc()
				s.cfg.logf("server: recovered handler panic on %s %s: %v\n%s",
					r.Method, r.URL.Path, pe.Value, pe.Stack)
				if rec.status == 0 {
					writeError(rec, http.StatusInternalServerError,
						"internal error: handler panicked (recovered; server healthy)")
				}
			}
		}()
		s.mux.ServeHTTP(rec, r)
	}()
	s.m.countStatus(rec.code())
	if s.cfg.AccessLog != nil {
		s.cfg.AccessLog.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.code()),
			slog.Float64("dur_ms", msSince(started)))
	}
}

// statusRecorder captures the response status for the stats counters.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) code() int {
	if r.status == 0 {
		return http.StatusOK
	}
	return r.status
}

// fixRequest is the POST /v1/fix (and, minus the agent fields, /v1/lint)
// body. Omitted fields take the documented defaults.
type fixRequest struct {
	// Source is the erroneous Verilog (required).
	Source string `json:"source"`
	// Filename appears in compiler logs; default "main.v".
	Filename string `json:"filename"`
	// Compiler is the feedback persona; default "quartus".
	Compiler string `json:"compiler"`
	// Persona is the simulated LLM; default "gpt-3.5".
	Persona string `json:"persona"`
	// Mode is "react" or "one-shot"; default "react".
	Mode string `json:"mode"`
	// RAG consults the retrieval database; default true.
	RAG *bool `json:"rag"`
	// MaxIterations bounds ReAct revisions; 0 = the paper's 10.
	MaxIterations int `json:"max_iterations"`
	// Analyze runs the semantic lint rules over the source: /v1/lint
	// appends their findings to the response, /v1/fix surfaces them in the
	// model's feedback. Default true.
	Analyze *bool `json:"analyze"`
	// Seed selects the problem instance (sampleSeed); default 1.
	Seed *int64 `json:"seed"`
	// TimeoutMS is the request deadline; 0 = server default.
	TimeoutMS int64 `json:"timeout_ms"`
	// Transcript asks for the rendered ReAct transcript in the response.
	Transcript bool `json:"transcript"`
}

// fixResponse is the POST /v1/fix success body.
type fixResponse struct {
	Success    bool     `json:"success"`
	Iterations int      `json:"iterations"`
	FinalCode  string   `json:"final_code"`
	FixerRules []string `json:"fixer_rules,omitempty"`
	// Coalesced is true when this response was served by a run another
	// request started.
	Coalesced bool `json:"coalesced"`
	// ElapsedMS is the agent run's wall-clock time (shared by every
	// coalesced waiter), not the request's queueing time.
	ElapsedMS  float64 `json:"elapsed_ms"`
	Transcript string  `json:"transcript,omitempty"`
}

// lintPos is a secondary source position inside a lint finding.
type lintPos struct {
	Line int `json:"line"`
	Col  int `json:"col"`
}

// lintFinding is one structured diagnostic in the /v1/lint response.
// Compiler-frontend diagnostics have an empty rule; analyzer findings
// carry their stable L-code.
type lintFinding struct {
	Rule     string    `json:"rule,omitempty"`
	Severity string    `json:"severity"`
	Category string    `json:"category"`
	Line     int       `json:"line"`
	Col      int       `json:"col"`
	Symbol   string    `json:"symbol,omitempty"`
	Message  string    `json:"message"`
	Related  []lintPos `json:"related,omitempty"`
}

// lintResponse is the POST /v1/lint success body.
type lintResponse struct {
	Ok       bool          `json:"ok"`
	Log      string        `json:"log"`
	Errors   int           `json:"errors"`
	Findings []lintFinding `json:"findings"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeFixerError distinguishes a bad configuration (client error) from
// an exhausted fixer pool (server-side bound).
func writeFixerError(w http.ResponseWriter, err error) {
	if errors.Is(err, errFixerPoolFull) {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeError(w, http.StatusBadRequest, "%v", err)
}

// decodeFixRequest parses and validates a request body, applying
// defaults. A nil error means req is servable.
func (s *Server) decodeFixRequest(w http.ResponseWriter, r *http.Request) (*fixRequest, bool) {
	// JSON escaping inflates the wire form (\n, \", \\ are two bytes
	// each), so allow the body twice the source budget plus envelope
	// slack; the exact check below is on the decoded source length.
	body := http.MaxBytesReader(w, r.Body, 2*int64(s.cfg.MaxSourceBytes)+8192)
	var req fixRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", s.cfg.MaxSourceBytes)
		} else {
			writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		}
		return nil, false
	}
	if strings.TrimSpace(req.Source) == "" {
		writeError(w, http.StatusBadRequest, "source is required")
		return nil, false
	}
	if len(req.Source) > s.cfg.MaxSourceBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "source over %d bytes", s.cfg.MaxSourceBytes)
		return nil, false
	}
	if req.Filename == "" {
		req.Filename = "main.v"
	}
	if req.Compiler == "" {
		req.Compiler = "quartus"
	}
	if req.Persona == "" {
		req.Persona = "gpt-3.5"
	}
	if req.Mode == "" {
		req.Mode = string(core.ModeReAct)
	}
	if req.Mode != string(core.ModeReAct) && req.Mode != string(core.ModeOneShot) {
		writeError(w, http.StatusBadRequest, "mode must be %q or %q", core.ModeReAct, core.ModeOneShot)
		return nil, false
	}
	if req.MaxIterations < 0 || req.MaxIterations > maxRequestIterations {
		writeError(w, http.StatusBadRequest, "max_iterations must be in [0, %d]", maxRequestIterations)
		return nil, false
	}
	if req.MaxIterations == 0 {
		// Normalize to the effective default so "omitted" and "10" share
		// one pooled fixer and coalesce together.
		req.MaxIterations = agent.DefaultMaxIterations
	}
	if req.TimeoutMS < 0 {
		writeError(w, http.StatusBadRequest, "timeout_ms must be >= 0")
		return nil, false
	}
	return &req, true
}

func (r *fixRequest) rag() bool {
	if r.RAG == nil {
		return true
	}
	return *r.RAG
}

func (r *fixRequest) analyze() bool {
	if r.Analyze == nil {
		return true
	}
	return *r.Analyze
}

func (r *fixRequest) seed() int64 {
	if r.Seed == nil {
		return 1
	}
	return *r.Seed
}

func (r *fixRequest) key() fixerKey {
	return fixerKey{
		compiler: r.Compiler,
		persona:  r.Persona,
		mode:     core.Mode(r.Mode),
		rag:      r.rag(),
		iters:    r.MaxIterations,
		analyze:  r.analyze(),
	}
}

// timeout clamps the request deadline to server bounds.
func (s *Server) timeout(req *fixRequest) time.Duration {
	d := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		d = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// Request-surface bounds on the fixer pool. Every field of fixerKey is
// client-controlled, so both the key space (iterations clamp) and the
// pool itself are capped — otherwise a request sweep could allocate one
// compile cache + retrieval index per distinct configuration, forever.
const (
	maxRequestIterations = 100
	maxFixerConfigs      = 64
)

// errFixerPoolFull maps to 503 in the handlers.
var errFixerPoolFull = errors.New("fixer pool full: too many distinct configurations")

// fixerFor returns the pooled fixer for a configuration, building it on
// first use. The pool is the point of the daemon: every request against
// the same configuration shares one compile cache and retrieval index.
// Construction runs outside fixersMu — it builds the retrieval index,
// and that must never stall every other request behind the pool lock.
// Racing builders of one configuration both construct; the loser's
// fixer is discarded.
func (s *Server) fixerFor(key fixerKey) (*core.RTLFixer, error) {
	s.fixersMu.Lock()
	if f, ok := s.fixers[key]; ok {
		s.fixersMu.Unlock()
		return f, nil
	}
	if len(s.fixers) >= maxFixerConfigs {
		s.fixersMu.Unlock()
		return nil, errFixerPoolFull
	}
	s.fixersMu.Unlock()

	f, err := core.New(core.Options{
		CompilerName:    key.compiler,
		PersonaName:     key.persona,
		RAG:             key.rag,
		Mode:            key.mode,
		MaxIterations:   key.iters,
		Seed:            s.cfg.Seed,
		Cache:           true,
		DisableAnalyzer: !key.analyze,
	})
	if err != nil {
		return nil, err
	}

	s.fixersMu.Lock()
	defer s.fixersMu.Unlock()
	if cur, ok := s.fixers[key]; ok {
		return cur, nil // a racer registered first; serve its fixer
	}
	if len(s.fixers) >= maxFixerConfigs {
		return nil, errFixerPoolFull
	}
	s.fixers[key] = f
	return f, nil
}

// Fixers reports how many distinct configurations the pool holds.
func (s *Server) Fixers() int {
	s.fixersMu.Lock()
	defer s.fixersMu.Unlock()
	return len(s.fixers)
}

// handleFix serves POST /v1/fix: admit, coalesce, dispatch, wait.
func (s *Server) handleFix(w http.ResponseWriter, r *http.Request) {
	s.m.fixRequests.Inc()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if fault.Hit(fault.HandlerPanic) {
		panic("fault: injected handler panic")
	}
	started := time.Now()
	root := s.traceStart("fix")
	defer root.End()
	root.SetStr("request_id", requestID(r.Context()))

	adm := root.Child("admission")
	req, ok := s.decodeFixRequest(w, r)
	if !ok {
		adm.SetStr("outcome", "bad_request")
		adm.End()
		return
	}
	root.SetStr("filename", req.Filename)
	root.SetStr("compiler", req.Compiler)
	root.SetStr("mode", req.Mode)
	root.SetInt("seed", req.seed())
	fixer, err := s.fixerFor(req.key())
	if err != nil {
		adm.SetStr("outcome", "fixer_error")
		adm.End()
		writeFixerError(w, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req))
	defer cancel()

	f, coalesced, err := s.joinOrLead(ctx, req, fixer, root)
	if err != nil {
		switch {
		case errors.Is(err, errDraining):
			adm.SetStr("outcome", "rejected_draining")
			s.m.rejectedDraining.Inc()
			writeError(w, http.StatusServiceUnavailable, "server is draining")
		case errors.Is(err, errQueueFull):
			adm.SetStr("outcome", "rejected_queue_full")
			s.m.rejectedQueueFull.Inc()
			writeError(w, http.StatusTooManyRequests, "admission queue full (%d in flight + %d queued)",
				s.cfg.MaxInFlight, s.cfg.QueueDepth)
		default:
			adm.SetStr("outcome", "error")
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		adm.End()
		return
	}
	if coalesced {
		adm.SetStr("outcome", "coalesced")
		s.m.coalesced.Inc()
	} else {
		adm.SetStr("outcome", "admitted")
	}
	adm.End()
	root.SetBool("coalesced", coalesced)

	wait := root.Child("wait")
	select {
	case <-f.done:
		wait.End()
	case <-ctx.Done():
		wait.SetBool("expired", true)
		wait.End()
		root.SetStr("outcome", "deadline_expired")
		s.m.deadlineExpired.Inc()
		s.m.fixLatency.Observe(msSince(started))
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded after %v", s.timeout(req))
		return
	}

	s.m.fixLatency.Observe(msSince(started))
	switch {
	case f.err != nil:
		if _, isPanic := resilience.AsPanic(f.err); isPanic {
			root.SetStr("outcome", "panic")
			writeError(w, http.StatusInternalServerError,
				"internal error: agent run panicked (isolated; server healthy)")
			break
		}
		root.SetStr("outcome", "canceled")
		writeError(w, http.StatusServiceUnavailable, "run canceled: %v", f.err)
	case f.tr == nil:
		// The leader's deadline expired before the run started, so the
		// runner skipped it; this waiter raced the same fate.
		root.SetStr("outcome", "expired_before_run")
		s.m.deadlineExpired.Inc()
		writeError(w, http.StatusGatewayTimeout, "coalesced run expired before starting")
	default:
		resp := fixResponse{
			Success:    f.tr.Success,
			Iterations: f.tr.Iterations,
			FinalCode:  f.tr.FinalCode,
			FixerRules: f.tr.FixerRules,
			Coalesced:  coalesced,
			ElapsedMS:  float64(f.elapsed) / float64(time.Millisecond),
		}
		if req.Transcript {
			resp.Transcript = f.tr.Render()
		}
		root.SetStr("outcome", "ok")
		root.SetBool("success", f.tr.Success)
		if f.tr.Success {
			s.m.fixOK.Inc()
		} else {
			s.m.fixFailed.Inc()
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// handleLint serves POST /v1/lint: one compile, no agent, no queue (a
// lint is a single frontend pass — orders of magnitude cheaper than a fix
// run, and served from the shared compile cache on repeats).
func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	s.m.lintRequests.Inc()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.brownedOut() {
		// Lint is a best-effort surface: under fix-traffic pressure it is
		// the first thing shed (the degradation ladder's brownout rung).
		s.m.brownoutLintShed.Inc()
		writeError(w, http.StatusServiceUnavailable, "lint shed under load (brownout); retry later")
		return
	}
	started := time.Now()
	req, ok := s.decodeFixRequest(w, r)
	if !ok {
		return
	}
	root := s.traceStart("lint")
	root.SetStr("request_id", requestID(r.Context()))
	root.SetStr("filename", req.Filename)
	defer root.End()
	fixer, err := s.fixerFor(req.key())
	if err != nil {
		writeFixerError(w, err)
		return
	}
	cs := root.Child("compile")
	res := fixer.Lint(req.Filename, req.Source)
	cs.SetBool("ok", res.Ok)
	cs.End()
	root.SetBool("ok", res.Ok)
	resp := lintResponse{Ok: res.Ok, Log: res.Log, Findings: []lintFinding{}}
	for _, d := range res.Diags {
		if d.Severity == diag.SeverityError {
			resp.Errors++
		}
		f := lintFinding{
			Rule:     d.Rule,
			Severity: d.Severity.String(),
			Category: d.Category.String(),
			Line:     d.Pos.Line,
			Col:      d.Pos.Col,
			Symbol:   d.Symbol,
			Message:  d.Message,
		}
		for _, rp := range d.Related {
			f.Related = append(f.Related, lintPos{Line: rp.Line, Col: rp.Col})
		}
		resp.Findings = append(resp.Findings, f)
		if d.Rule != "" {
			s.m.countFinding(d.Rule)
		}
	}
	s.m.lintLatency.Observe(msSince(started))
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz serves GET /v1/healthz: pure liveness, always 200 while
// the process can answer at all. Routability — drain, warm-up — lives
// on /v1/readyz (resilience.go); healthz still names the drain in its
// body so one curl tells an operator the story, but a draining daemon
// is alive, not dead.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.m.healthzRequests.Inc()
	body := map[string]any{"build": buildSummary()}
	if s.tracer != nil {
		body["trace"] = s.tracer.Occupancy()
	}
	if s.isDraining() {
		body["status"] = "draining"
	} else {
		body["status"] = "ok"
	}
	body["uptime_ms"] = msSince(s.start)
	writeJSON(w, http.StatusOK, body)
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}
