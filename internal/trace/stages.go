// Stage-latency aggregation: fold finished traces' span durations into
// per-stage histograms keyed by span name, and render the attribution
// table loadgen and benchmark print. Wired as a Collector finish hook,
// so the data plane never touches the aggregate — spans still open when
// the root ends (a deadline-expired request's background run) are
// skipped rather than recorded with a bogus duration.
package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// StageAgg accumulates span durations into one histogram per span name.
type StageAgg struct {
	mu    sync.Mutex
	hists map[string]*metrics.Histogram
}

// NewStageAgg builds an empty aggregate.
func NewStageAgg() *StageAgg {
	return &StageAgg{hists: map[string]*metrics.Histogram{}}
}

// Observe folds one finished trace in — the Collector.SetOnFinish hook.
func (a *StageAgg) Observe(t *Trace) {
	if a == nil || t == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	t.Walk(func(name string, dur time.Duration, ended bool) {
		if !ended {
			return
		}
		h, ok := a.hists[name]
		if !ok {
			h = metrics.NewLatencyHistogram()
			a.hists[name] = h
		}
		h.Observe(float64(dur) / float64(time.Millisecond))
	})
}

// Snapshot returns per-stage histogram snapshots, keyed by span name.
func (a *StageAgg) Snapshot() map[string]metrics.HistogramSnapshot {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]metrics.HistogramSnapshot, len(a.hists))
	for name, h := range a.hists {
		out[name] = h.Snapshot()
	}
	return out
}

// OrderedStages is a stage-snapshot map that marshals to JSON in
// pipeline order (StageNames) instead of Go's alphabetical map order,
// so the /v1/stats "stages" object reads top-to-bottom like the
// attribution table. Decoding uses the ordinary map rules.
type OrderedStages map[string]metrics.HistogramSnapshot

// MarshalJSON implements json.Marshaler with deterministic key order.
func (o OrderedStages) MarshalJSON() ([]byte, error) {
	if o == nil {
		return []byte("null"), nil
	}
	var b bytes.Buffer
	b.WriteByte('{')
	for i, name := range StageNames(o) {
		if i > 0 {
			b.WriteByte(',')
		}
		k, err := json.Marshal(name)
		if err != nil {
			return nil, err
		}
		b.Write(k)
		b.WriteByte(':')
		v, err := json.Marshal(o[name])
		if err != nil {
			return nil, err
		}
		b.Write(v)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// stageOrder is the span taxonomy in pipeline order; stages outside it
// sort after, alphabetically. Keeping the table in request-flow order
// makes the attribution readable top to bottom.
var stageOrder = []string{
	"fix", "lint", "job", "admission", "queue", "wait", "run",
	"agent", "iteration", "compile", "analyze", "rag", "llm", "sim",
}

func stageRank(name string) int {
	for i, s := range stageOrder {
		if s == name {
			return i
		}
	}
	return len(stageOrder)
}

// StageNames returns the snapshot's stage names in pipeline order
// (stageOrder first, unknown names after, alphabetically) — the stable
// iteration order /metrics and the tables share.
func StageNames(stages map[string]metrics.HistogramSnapshot) []string {
	names := make([]string, 0, len(stages))
	for name := range stages {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		ri, rj := stageRank(names[i]), stageRank(names[j])
		if ri != rj {
			return ri < rj
		}
		return names[i] < names[j]
	})
	return names
}

// RenderStageTable formats per-stage latency attribution (count, p50,
// p90, p99, max, and total wall-clock) from histogram snapshots — the
// table loadgen -stages and benchmark -stages print. Returns "" when
// there is nothing to report.
func RenderStageTable(stages map[string]metrics.HistogramSnapshot) string {
	var names []string
	for _, name := range StageNames(stages) {
		if stages[name].Count > 0 {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("Stage latency attribution (ms per span):\n")
	fmt.Fprintf(&b, "%-12s %8s %10s %10s %10s %10s %12s\n",
		"stage", "count", "p50", "p90", "p99", "max", "total ms")
	for _, name := range names {
		s := stages[name]
		fmt.Fprintf(&b, "%-12s %8d %10.2f %10.2f %10.2f %10.2f %12.1f\n",
			name, s.Count, s.P50, s.P90, s.P99, s.Max, s.Sum)
	}
	return b.String()
}
