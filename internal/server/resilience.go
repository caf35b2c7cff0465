// The serving spine's resilience plane: the /v1/readyz readiness gate,
// background prewarm, and the overload brownout that sheds best-effort
// surfaces before fix traffic.
//
// The degradation ladder, top rung first:
//
//   - Handler or worker panic → recovered into a typed 500 + counter;
//     the daemon keeps serving (server.go / dispatch.go).
//   - Overload → once admission fill crosses brownoutFill, lint
//     answers 503 and new request traces are shed; fix traffic keeps
//     the capacity.
//   - Sim-check or analyzer failure → the feature is skipped and
//     counted, never request-fatal (simcheck.go, internal/analyze). A
//     runaway simulation is stopped by its watchdog, which also counts
//     the trips of every loop in the design.
package server

import (
	"net/http"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/trace"
)

// brownoutFill is the admission-fill fraction past which the server
// browns out best-effort surfaces (lint answers 503, new request traces
// are shed) to keep capacity for fix traffic.
const brownoutFill = 0.9

// brownedOut reports whether admission fill has crossed the brownout
// mark: len(admitted) counts every outstanding admission charge, so the
// read is one channel length, cheap enough for every lint request.
func (s *Server) brownedOut() bool {
	return len(s.admitted) >= s.brownoutAt
}

// traceStart is the brownout-aware trace entry point for request
// handlers: under brownout new traces are shed (nil span — the whole
// chain no-ops) so tracing's allocations are spent on fix capacity
// instead. Shed traces are counted; responses are byte-identical either
// way, as with tracing disabled.
func (s *Server) traceStart(name string) *trace.Span {
	if s.tracer == nil {
		return nil
	}
	if s.brownedOut() {
		s.m.brownoutTracesShed.Inc()
		return nil
	}
	return s.tracer.Start(name)
}

// prewarm builds the default fixer configuration (the one an
// unconfigured request maps to) and then flips the readiness latch, so
// a prewarming daemon's first routed request hits a built retrieval
// index instead of paying construction.
func (s *Server) prewarm() {
	key := fixerKey{
		compiler: "quartus",
		persona:  "gpt-3.5",
		mode:     core.ModeReAct,
		rag:      true,
		iters:    agent.DefaultMaxIterations,
		analyze:  true,
	}
	if _, err := s.fixerFor(key); err != nil {
		s.cfg.logf("server: prewarm failed (serving anyway): %v", err)
	}
	s.prewarmed.Store(true)
	s.cfg.logf("server: prewarmed default fixer configuration; ready")
}

// readiness is the one readiness predicate — /v1/readyz, the
// rtlfixer_ready gauge, and /v1/stats resilience.ready all read it:
// "ready", or why not ("draining", or "warming" while the prewarm is
// still building).
func (s *Server) readiness() string {
	switch {
	case s.isDraining():
		return "draining"
	case !s.prewarmed.Load():
		return "warming"
	}
	return "ready"
}

// handleReadyz serves GET /v1/readyz: the routability probe, 200 when
// ready and 503 otherwise, with the readiness status in the body. Load
// balancers and loadgen -wait-ready poll this; liveness stays on
// /v1/healthz.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.m.readyzRequests.Inc()
	status := s.readiness()
	code := http.StatusOK
	if status != "ready" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{"status": status})
}
