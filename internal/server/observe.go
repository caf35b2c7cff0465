// Observability endpoints: Prometheus text exposition at GET /metrics
// and the request-trace surface at GET /v1/trace (recent + slow-retained
// list) and GET /v1/trace/{id} (one full span tree). Both read the same
// atomics and snapshots /v1/stats reads — the monitoring plane never
// contends with serving.
package server

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// handleMetrics serves GET /metrics in Prometheus exposition format
// 0.0.4: every family declared in declareMetrics (stats.go), in
// declaration order.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", metrics.PromContentType)
	_ = s.reg.WriteProm(w) // sticky; nothing useful to do mid-response
}

// traceListResponse is the GET /v1/trace body.
type traceListResponse struct {
	Enabled   bool            `json:"enabled"`
	Occupancy trace.Occupancy `json:"occupancy"`
	Traces    []trace.Summary `json:"traces"`
}

// handleTraceList serves GET /v1/trace: newest-first summaries of the
// retained traces (ring plus slow tier), bounded by ?limit=N.
func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	resp := traceListResponse{Enabled: s.tracer != nil, Traces: []trace.Summary{}}
	if s.tracer == nil {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	limit := 0
	if raw := r.URL.Query().Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "limit must be a non-negative integer")
			return
		}
		limit = n
	}
	resp.Occupancy = s.tracer.Occupancy()
	if got := s.tracer.Summaries(limit); got != nil {
		resp.Traces = got
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleTraceGet serves GET /v1/trace/{id}: the full span tree of one
// retained trace.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if s.tracer == nil {
		writeError(w, http.StatusNotFound, "tracing disabled")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
	if id == "" || strings.ContainsRune(id, '/') {
		writeError(w, http.StatusNotFound, "trace id required: /v1/trace/{id}")
		return
	}
	tr, ok := s.tracer.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "trace %q not retained (evicted or never collected)", id)
		return
	}
	writeJSON(w, http.StatusOK, tr.JSON())
}

// buildSummary reports what binary is serving: Go toolchain, module
// version, and VCS revision when stamped (debug.ReadBuildInfo).
func buildSummary() map[string]string {
	b := map[string]string{"go": runtime.Version()}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	b["module"] = info.Main.Path
	if info.Main.Version != "" {
		b["version"] = info.Main.Version
	}
	for _, kv := range info.Settings {
		switch kv.Key {
		case "vcs.revision":
			b["revision"] = kv.Value
		case "vcs.time":
			b["vcs_time"] = kv.Value
		}
	}
	return b
}
