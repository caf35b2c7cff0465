// Simulation-layer observability for the serving spine: every post-fix
// smoke check (simcheck.go) runs on the compiled engine with a wave
// coverage observer and the engine profiler attached. The per-run
// results fold into one process-wide aggregate served under the "sim"
// key of /v1/stats and as the rtlfixer_sim_* families on /metrics.
// Attachment costs nothing on the response path — the check itself is
// already off the critical path, and the aggregate is a small
// mutex-guarded struct written once per check.
package server

import (
	"sort"
	"sync"

	"repro/internal/wave"
)

// simObs accumulates sim-check observability across the process.
type simObs struct {
	mu sync.Mutex

	runs    uint64 // observed runs folded in
	samples uint64 // post-settle snapshots across runs
	toggles uint64 // bit-change events across runs

	// Latest-run coverage plane (per-run fractions are more useful than
	// a lifetime union across unrelated designs) plus lifetime maxima.
	lastCovered, lastTotal  int
	lastProcs, lastProcsAct int
	bestFraction            float64

	// Engine-profile plane, summed across runs.
	instructions  uint64
	settles       uint64
	fixpointIters uint64
	ops           map[string]uint64
	hottest       wave.ProcessStat
}

func newSimObs() *simObs {
	return &simObs{ops: map[string]uint64{}}
}

// fold merges one observed check into the aggregate. cov and prof must
// be non-nil.
func (o *simObs) fold(cov *wave.Coverage, prof *wave.EngineProfile) {
	st := cov.Stats()
	o.mu.Lock()
	defer o.mu.Unlock()
	o.runs++
	o.samples += st.Samples
	o.toggles += st.Toggles
	o.lastCovered = st.PointsCovered
	o.lastTotal = st.PointsTotal
	o.lastProcs = st.Processes
	o.lastProcsAct = st.ProcessesActive
	if f := st.Fraction(); f > o.bestFraction {
		o.bestFraction = f
	}
	o.instructions += prof.Instructions
	o.settles += prof.Settles
	o.fixpointIters += prof.FixpointIters
	for _, oc := range prof.Ops {
		o.ops[oc.Op] += oc.Count
	}
	if h := prof.Hottest(); h.Activations > o.hottest.Activations {
		o.hottest = h
	}
}

// SimObsSnapshot is the /v1/stats "sim" section.
type SimObsSnapshot struct {
	Runs    uint64 `json:"runs"`
	Samples uint64 `json:"samples"`
	Toggles uint64 `json:"toggles"`

	// Coverage of the most recent observed check plus the best fraction
	// seen — per-run toggle coverage, not a union across designs.
	LastCoveredPoints int     `json:"last_covered_points"`
	LastTotalPoints   int     `json:"last_total_points"`
	LastProcesses     int     `json:"last_processes"`
	LastProcsActive   int     `json:"last_processes_active"`
	LastFraction      float64 `json:"last_fraction"`
	BestFraction      float64 `json:"best_fraction"`

	// Engine-profile aggregate, summed across checks.
	Instructions  uint64            `json:"instructions"`
	Settles       uint64            `json:"settles"`
	FixpointIters uint64            `json:"fixpoint_iters"`
	TopOps        []wave.OpCount    `json:"top_ops,omitempty"`
	Hottest       *wave.ProcessStat `json:"hottest_process,omitempty"`
}

// snapshot renders the aggregate.
func (o *simObs) snapshot() *SimObsSnapshot {
	o.mu.Lock()
	defer o.mu.Unlock()
	snap := &SimObsSnapshot{
		Runs: o.runs, Samples: o.samples, Toggles: o.toggles,
		LastCoveredPoints: o.lastCovered, LastTotalPoints: o.lastTotal,
		LastProcesses: o.lastProcs, LastProcsActive: o.lastProcsAct,
		LastFraction: o.lastFraction(), BestFraction: o.bestFraction,
		Instructions: o.instructions, Settles: o.settles, FixpointIters: o.fixpointIters,
	}
	for op, n := range o.ops {
		snap.TopOps = append(snap.TopOps, wave.OpCount{Op: op, Count: n})
	}
	sort.Slice(snap.TopOps, func(i, j int) bool {
		if snap.TopOps[i].Count != snap.TopOps[j].Count {
			return snap.TopOps[i].Count > snap.TopOps[j].Count
		}
		return snap.TopOps[i].Op < snap.TopOps[j].Op
	})
	if len(snap.TopOps) > 8 {
		snap.TopOps = snap.TopOps[:8]
	}
	if o.hottest.Activations > 0 {
		h := o.hottest
		snap.Hottest = &h
	}
	return snap
}

// lastFraction is the latest observed run's coverage fraction (0 before
// any run). Callers hold mu.
func (o *simObs) lastFraction() float64 {
	if total := o.lastTotal + o.lastProcs; total > 0 {
		return float64(o.lastCovered+o.lastProcsAct) / float64(total)
	}
	return 0
}

// reader returns a locked read of one aggregate figure, the value source
// of an rtlfixer_sim_* family.
func (o *simObs) reader(get func(*simObs) float64) func() float64 {
	return func() float64 {
		o.mu.Lock()
		defer o.mu.Unlock()
		return get(o)
	}
}
