package main

import (
	"fmt"
	"math/rand"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/curate"
	"repro/internal/dataset"
	"repro/internal/trace"
)

// repair-sweep is Table 1: every defined fixer configuration over all
// curated entries. It puts the agent, llm, compiler, analyze, rag and
// memo-compile layers on the hot path with distinct sources and cold
// per-configuration caches, and does no simulation and no serving.
var repairSweep = workload{
	name:    "repair-sweep",
	clients: 1,
	units:   func(seconds int) int { return unitsFor(seconds, 3.5) },
	setup:   setupRepairSweep,
}

// sweepRepeats is how many sample seeds one sweep gives each entry.
// Sweep k uses repeats 2k and 2k+1, so K sweeps are exactly Table 1
// run with 2K repeats.
const sweepRepeats = 2

// sweepRounds splits a sweep into rounds, each running every
// configuration on every sweepRounds-th entry. A round is one timing
// window: it holds all of Table 1's configurations, so every window
// does the same mix of cheap one-shot and costly ReAct fixes. A fix
// depends only on its configuration, source and seed, and the caches
// only save work, so the order leaves the scores Table 1's.
const sweepRounds = 4

// sweepConfig is one defined cell of Table 1.
type sweepConfig struct {
	mode     core.Mode
	rag      bool
	compiler string
	persona  string
}

// table1Configs lists Table 1's defined cells in its row order. The
// Simple compiler gives no log to retrieve on, so Simple with RAG is
// the table's "-" and is left out.
func table1Configs() []sweepConfig {
	var out []sweepConfig
	for _, mode := range []core.Mode{core.ModeOneShot, core.ModeReAct} {
		for _, rag := range []bool{false, true} {
			for _, comp := range []string{"simple", "iverilog", "quartus"} {
				if !(rag && comp == "simple") {
					out = append(out, sweepConfig{mode, rag, comp, "gpt-3.5"})
				}
			}
			out = append(out, sweepConfig{mode, rag, "quartus", "gpt-4"})
		}
	}
	return out
}

type sweepOp struct {
	sweep, config, entry, repeat int
	last                         bool // the fixer's last operation
}

type repairSweepRun struct {
	seed    int64
	coll    *trace.Collector
	entries []curate.Entry
	configs []sweepConfig
	fixers  [][]*core.RTLFixer // [sweep][config], each fresh; nil once used
	plan    []sweepOp
	out     []fixOutcome
	codes   map[string]string // interned final codes
}

// fixOutcome is what the checks need of one transcript. Keeping whole
// transcripts, or a copy of each final code, would make the
// benchmark's own heap the largest in the run.
type fixOutcome struct {
	success bool
	code    string
}

func setupRepairSweep(seed int64, sweeps int, coll *trace.Collector, st *setupTimes) (runner, error) {
	r := &repairSweepRun{seed: seed, coll: coll, entries: st.buildCurated(), configs: table1Configs()}
	if len(r.entries)%sweepRounds != 0 {
		return nil, fmt.Errorf("%d curated entries do not split into %d rounds", len(r.entries), sweepRounds)
	}
	for k := 0; k < sweeps; k++ {
		var row []*core.RTLFixer
		for _, cfg := range r.configs {
			f, err := st.newFixer(core.Options{
				CompilerName: cfg.compiler,
				PersonaName:  cfg.persona,
				RAG:          cfg.rag,
				Mode:         cfg.mode,
				Seed:         seed,
				Cache:        true,
			})
			if err != nil {
				return nil, err
			}
			row = append(row, f)
		}
		r.fixers = append(r.fixers, row)
		for round := 0; round < sweepRounds; round++ {
			for c := range r.configs {
				for e := round; e < len(r.entries); e += sweepRounds {
					for rep := 0; rep < sweepRepeats; rep++ {
						r.plan = append(r.plan, sweepOp{sweep: k, config: c, entry: e, repeat: k*sweepRepeats + rep})
					}
				}
				if round == sweepRounds-1 {
					r.plan[len(r.plan)-1].last = true
				}
			}
		}
	}
	r.out = make([]fixOutcome, len(r.plan))
	r.codes = map[string]string{}
	return r, nil
}

func (r *repairSweepRun) ops() int { return len(r.plan) }

func (r *repairSweepRun) window() int { return len(r.plan) / len(r.fixers) / sweepRounds }

// sampleSeed is Table 1's seed schedule for one attempt.
func sampleSeed(e curate.Entry, repeat int) int64 { return e.SampleSeed + int64(repeat)*7919 }

func (r *repairSweepRun) op(i int) error {
	p := r.plan[i]
	e := r.entries[p.entry]
	root := r.coll.Start("op")
	ag := root.Child("agent")
	tr := r.fixers[p.sweep][p.config].FixTraced("main.v", e.Code, sampleSeed(e, p.repeat), ag)
	ag.End()
	code, ok := r.codes[tr.FinalCode]
	if !ok {
		code = tr.FinalCode
		r.codes[code] = code
	}
	r.out[i] = fixOutcome{success: tr.Success, code: code}
	// Release each fixer and its caches after its last operation, so
	// only one sweep's fixers are live at a time.
	if p.last {
		r.fixers[p.sweep][p.config] = nil
	}
	root.End()
	return nil
}

// verify checks that every fix reported as a success elaborates under
// the uncached frontend, then scores pass@1 of the fixed code on each
// entry's problem testbench.
func (r *repairSweepRun) verify(bad []bool) outcome {
	elaborates := map[string]bool{}
	passes := map[passKey]bool{}
	fixed, passed := 0, 0
	for i, o := range r.out {
		if bad[i] || !o.success {
			continue
		}
		fixed++
		ok, seen := elaborates[o.code]
		if !seen {
			_, design, _ := compiler.Frontend(o.code)
			ok = design != nil
			elaborates[o.code] = ok
		}
		if !ok {
			bad[i] = true
			continue
		}
		e := r.plan[i].entry
		if passesProblem(passes, r.entries[e], o.code, vecSeed(r.seed, e)) {
			passed++
		}
	}
	n := float64(len(r.out))
	return outcome{fixRate: ratio(float64(fixed), n), passAt1: ratio(float64(passed), n)}
}

// fixRates is the fix rate of each configuration, in table1Configs order.
func (r *repairSweepRun) fixRates() []float64 {
	fixed := make([]int, len(r.configs))
	total := make([]int, len(r.configs))
	for i, o := range r.out {
		c := r.plan[i].config
		total[c]++
		if o.success {
			fixed[c]++
		}
	}
	rates := make([]float64, len(r.configs))
	for c := range rates {
		rates[c] = ratio(float64(fixed[c]), float64(total[c]))
	}
	return rates
}

func (r *repairSweepRun) close() {}

type passKey struct {
	problem, code string
	vec           int64
}

// passesProblem reports whether code passes the testbench of the
// entry's problem, remembering answers in seen.
func passesProblem(seen map[passKey]bool, e curate.Entry, code string, vec int64) bool {
	k := passKey{string(e.Suite) + "/" + e.ProblemID, code, vec}
	if ok, done := seen[k]; done {
		return ok
	}
	ok := false
	if p, found := dataset.ByID(e.Suite, e.ProblemID); found {
		res, err := p.Check(code, rand.New(rand.NewSource(vec)))
		ok = err == nil && res.Passed()
	}
	seen[k] = ok
	return ok
}

// vecSeed is the testbench stimulus seed for item i, as Table 2 draws it.
func vecSeed(seed int64, i int) int64 { return seed ^ int64(i)*104729 }
