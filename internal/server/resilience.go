// The serving spine's resilience plane: per-fixer-configuration circuit
// breakers, the /v1/readyz readiness gate, background prewarm, and the
// overload brownout that sheds best-effort surfaces before fix traffic.
//
// The degradation ladder, top rung first:
//
//   - Handler or worker panic → recovered into a typed 500 + counter;
//     the daemon keeps serving (server.go / dispatch.go).
//   - LLM backend outage → retried inside the agent (internal/agent);
//     past the budget the run aborts into a typed 502, and consecutive
//     aborts against one configuration open its breaker here.
//   - Store unavailable → the store itself degrades to bounded
//     in-memory-only (internal/store); /v1/readyz answers 503
//     "store-degraded" so balancers drain writes away, /v1/healthz just
//     reports the flag (the process is alive).
//   - Overload → once admission fill crosses BrownoutThreshold, lint
//     answers 503 and new request traces are shed; fix traffic keeps
//     the capacity.
//   - Sim-check or analyzer failure → the feature is skipped and
//     counted, never request-fatal (simcheck.go, internal/analyze).
package server

import (
	"fmt"
	"net/http"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/resilience"
	"repro/internal/trace"
)

// breakerFor returns the circuit breaker guarding one fixer
// configuration, building it on first use. Breakers are per
// configuration because failure is per configuration: one persona
// pinned against a dead backend must not black-hole requests for the
// others.
func (s *Server) breakerFor(key fixerKey) *resilience.Breaker {
	s.breakersMu.Lock()
	defer s.breakersMu.Unlock()
	if b, ok := s.breakers[key]; ok {
		return b
	}
	b := resilience.NewBreaker(resilience.BreakerConfig{
		FailureThreshold: s.cfg.BreakerThreshold,
		Cooldown:         s.cfg.BreakerCooldown,
	})
	s.breakers[key] = b
	return b
}

// recordBreaker folds one finished flight into its configuration's
// breaker. Failures are the run-level faults a breaker can meaningfully
// shield — a panicked run or an LLM-abort; an unsuccessful-but-completed
// fix is the agent doing its job, and cancellations/expiries say nothing
// about the configuration's health.
func (s *Server) recordBreaker(br *resilience.Breaker, f *flight) {
	switch {
	case resilience.IsPanic(f.err):
		br.Failure()
	case f.tr != nil && f.tr.Aborted != "":
		br.Failure()
	case f.tr != nil:
		br.Success()
	}
}

// breakerSnapshots renders every pooled breaker for /v1/stats, keyed
// "compiler/persona/mode"; distinct configurations sharing that triple
// get a "#n" suffix so none are silently merged.
func (s *Server) breakerSnapshots() map[string]resilience.BreakerSnapshot {
	s.breakersMu.Lock()
	defer s.breakersMu.Unlock()
	if len(s.breakers) == 0 {
		return nil
	}
	out := make(map[string]resilience.BreakerSnapshot, len(s.breakers))
	for key, b := range s.breakers {
		name := fmt.Sprintf("%s/%s/%s", key.compiler, key.persona, key.mode)
		for n := 2; ; n++ {
			if _, taken := out[name]; !taken {
				break
			}
			name = fmt.Sprintf("%s/%s/%s#%d", key.compiler, key.persona, key.mode, n)
		}
		out[name] = b.Snapshot()
	}
	return out
}

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
// "ready", or why not ("draining", "warming" while the prewarm is still
// building, "store-degraded" while the store sheds to memory).
func (s *Server) readiness() string {
	switch {
	case s.isDraining():
		return "draining"
	case !s.prewarmed.Load():
		return "warming"
	case s.cfg.Store != nil && s.cfg.Store.Degraded():
		return "store-degraded"
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
