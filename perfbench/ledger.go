package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/trace"
)

// traceSink keeps every finished trace of a traced run, so the ledger
// reads each once after the timed phase; the collector's own ring only
// offers lookups by ID. Where the program aggregates stage latencies on
// the collector, stages does that same work in its place.
type traceSink struct {
	mu     sync.Mutex
	traces []*trace.Trace
	stages *trace.StageAgg
}

// observe is the collector's finish hook.
func (k *traceSink) observe(t *trace.Trace) {
	k.mu.Lock()
	k.traces = append(k.traces, t)
	k.mu.Unlock()
	if k.stages != nil {
		k.stages.Observe(t)
	}
}

// finished returns the kept traces, checking that every trace coll
// started has finished.
func (k *traceSink) finished(coll *trace.Collector) ([]*trace.Trace, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if started := coll.Occupancy().Started; uint64(len(k.traces)) != started {
		return nil, fmt.Errorf("%d of %d traces finished", len(k.traces), started)
	}
	return k.traces, nil
}

// layerOf maps a span kind to the module it measures. The benchmark's
// own operation root ("op") belongs to no layer: its self time is the
// harness, counted as unattributed. A kind missing here belongs to its
// parent's layer, so a span added inside a layer later stays in it.
var layerOf = map[string]string{
	"op":                "",
	"agent":             "agent",
	"iteration":         "agent",
	"llm":               "llm",
	"llm.generate":      "llm",
	"compile/miss":      "compiler",
	"compile":           "compiler",
	"compiler.frontend": "compiler",
	"compile/hit":       "memo",
	"rag":               "rag",
	"fixer.fix":         "fixer",
	"dataset.check":     "dataset",
	"fix":               "server",
	"lint":              "server",
	"admission":         "server",
	"queue":             "server",
	"wait":              "server",
	"run":               "pipeline",
	"sim":               "sim",
}

var ledgerLayers = []string{"agent", "llm", "compiler", "memo", "rag", "fixer", "dataset", "server", "pipeline", "sim"}

// spanKind is the span's name, with agent compiles split by whether the
// memo layer answered them.
func spanKind(s trace.SpanJSON) string {
	if s.Name == "compile" {
		if hit, ok := s.Attrs["cache_hit"].(bool); ok {
			if hit {
				return "compile/hit"
			}
			return "compile/miss"
		}
	}
	return s.Name
}

type node struct {
	kind, layer string
	start, end  float64 // ms from the trace's start
	depth       int
	attrs       map[string]any
}

func flatten(s trace.SpanJSON, depth int, parentLayer string, out []node) []node {
	kind := spanKind(s)
	layer, ok := layerOf[kind]
	if !ok {
		layer = parentLayer
	}
	end := s.StartMS
	if s.Ended {
		end += s.DurMS
	}
	out = append(out, node{kind: kind, layer: layer, start: s.StartMS, end: end, depth: depth, attrs: s.Attrs})
	for _, c := range s.Children {
		out = flatten(c, depth+1, layer, out)
	}
	return out
}

// selfTimes gives each span the instants at which it is the deepest
// open span (the latest started among equally deep ones). For nested
// spans that is the span's duration minus the time its children cover;
// where siblings overlap, as a server request's wait does with its run,
// each instant is still counted once.
func selfTimes(nodes []node) []float64 {
	pts := make([]float64, 0, 2*len(nodes))
	for _, n := range nodes {
		pts = append(pts, n.start, n.end)
	}
	sort.Float64s(pts)
	self := make([]float64, len(nodes))
	for k := 1; k < len(pts); k++ {
		a, b := pts[k-1], pts[k]
		if b <= a {
			continue
		}
		owner := -1
		for i, n := range nodes {
			if n.start > a || n.end < b {
				continue
			}
			if owner < 0 || n.depth > nodes[owner].depth ||
				(n.depth == nodes[owner].depth && n.start >= nodes[owner].start) {
				owner = i
			}
		}
		if owner >= 0 {
			self[owner] += b - a
		}
	}
	return self
}

type kindStat struct {
	calls     int
	self, dur float64 // ms
}

// tally sums every kept trace.
type tally struct {
	roots     int                // traces, one per operation
	layer     map[string]float64 // self ms per layer
	kinds     map[string]*kindStat
	queueWait []float64 // per server fix request: admission + queue + wait
	runDur    []float64
	batchSum  float64
	fixes     int // server fix requests
	coalesced int
	checks    int
	passed    int
}

// tallyTraces sums every trace.
func tallyTraces(traces []*trace.Trace) tally {
	t := tally{roots: len(traces), layer: map[string]float64{}, kinds: map[string]*kindStat{}}
	for _, tr := range traces {
		j := tr.JSON()
		nodes := flatten(j.Root, 0, "", nil)
		self := selfTimes(nodes)
		wait := 0.0
		for i, n := range nodes {
			if n.layer != "" {
				t.layer[n.layer] += self[i]
			}
			ks := t.kinds[n.kind]
			if ks == nil {
				ks = &kindStat{}
				t.kinds[n.kind] = ks
			}
			ks.calls++
			ks.self += self[i]
			ks.dur += n.end - n.start
			switch n.kind {
			case "admission", "queue", "wait":
				wait += self[i]
			case "run":
				t.runDur = append(t.runDur, n.end-n.start)
				if b, ok := n.attrs["batch_size"].(int64); ok {
					t.batchSum += float64(b)
				}
			case "dataset.check":
				t.checks++
				if p, _ := n.attrs["passed"].(bool); p {
					t.passed++
				}
			}
		}
		if nodes[0].kind == "fix" {
			t.fixes++
			t.queueWait = append(t.queueWait, wait)
			if c, _ := nodes[0].attrs["coalesced"].(bool); c {
				t.coalesced++
			}
		}
	}
	return t
}

func (t tally) calls(kinds ...string) int {
	n := 0
	for _, k := range kinds {
		if ks := t.kinds[k]; ks != nil {
			n += ks.calls
		}
	}
	return n
}

// selfPerCall is the mean self time of spans of the given kinds.
func (t tally) selfPerCall(kinds ...string) float64 {
	sum := 0.0
	for _, k := range kinds {
		if ks := t.kinds[k]; ks != nil {
			sum += ks.self
		}
	}
	return ratio(sum, float64(t.calls(kinds...)))
}

func (t tally) durPerCall(kind string) float64 {
	if ks := t.kinds[kind]; ks != nil {
		return ratio(ks.dur, float64(ks.calls))
	}
	return 0
}

// ledgerMetrics reports the per-layer figures of a traced phase whose
// operations took lat.
func ledgerMetrics(traces []*trace.Trace, lat []time.Duration) (map[string]metric, error) {
	t := tallyTraces(traces)
	if t.roots != len(lat) {
		return nil, fmt.Errorf("%d traces for %d operations", t.roots, len(lat))
	}
	ops := float64(len(lat))
	var opSum time.Duration
	for _, d := range lat {
		opSum += d
	}
	fixes := float64(t.calls("agent"))
	m := map[string]metric{
		"agent.fixes":                       {fixes, "count"},
		"agent.iterations_per_fix":          {ratio(float64(t.calls("llm")), fixes), "count"},
		"agent.self_ms_per_fix":             {ratio(t.layer["agent"], fixes), "ms"},
		"llm.repair_calls":                  {float64(t.calls("llm")), "count"},
		"llm.repair_ms_per_call":            {t.selfPerCall("llm"), "ms"},
		"llm.generate_ms_per_call":          {t.selfPerCall("llm.generate"), "ms"},
		"compiler.frontend_ms_per_call":     {t.selfPerCall("compiler.frontend"), "ms"},
		"fixer.fix_ms_per_call":             {t.selfPerCall("fixer.fix"), "ms"},
		"compiler.compile_calls":            {float64(t.calls("compile/hit", "compile/miss", "compile")), "count"},
		"compiler.compile_miss_ms_per_call": {t.selfPerCall("compile/miss"), "ms"},
		"rag.retrieve_calls":                {float64(t.calls("rag")), "count"},
		"rag.retrieve_ms_per_call":          {t.selfPerCall("rag"), "ms"},
		"dataset.checks":                    {float64(t.checks), "count"},
		"dataset.check_ms_per_call":         {t.selfPerCall("dataset.check"), "ms"},
		"dataset.check_pass_ratio":          {ratio(float64(t.passed), float64(t.checks)), "ratio"},
		"server.queue_wait_ms_p50":          {medianMS(t.queueWait), "ms"},
		"server.run_ms_p50":                 {medianMS(t.runDur), "ms"},
		"server.batch_size_mean":            {ratio(t.batchSum, float64(len(t.runDur))), "count"},
		"server.coalesced_ratio":            {ratio(float64(t.coalesced), float64(t.fixes)), "ratio"},
		"server.sim_check_ms_per_call":      {t.durPerCall("sim"), "ms"},
		"pipeline.job_ms_per_call":          {t.selfPerCall("run"), "ms"},
		"ledger.op_ms":                      {ratio(ms(opSum), ops), "ms"},
	}
	attributed := 0.0
	for _, layer := range ledgerLayers {
		perOp := ratio(t.layer[layer], ops)
		attributed += perOp
		m["ledger."+layer+"_ms_per_op"] = metric{perOp, "ms"}
	}
	m["ledger.unattributed_ms_per_op"] = metric{ratio(ms(opSum), ops) - attributed, "ms"}
	return m, nil
}

func medianMS(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}
