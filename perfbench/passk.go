package main

import (
	"math/rand"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fixer"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// passk-eval is Table 2's flow over every Human and Machine problem:
// generate a sample, pre-fix and compile it, run the ReAct+RAG+Quartus
// fixer only when it does not compile, then score it on the problem's
// testbench. It is the only workload with the functional oracle (the
// dataset harness, memo's sim cache, sim, bitvec) on the hot path; it
// uses no curation and no server.
//
// A run is a series of passes, each one timing window: pass k is Table 2
// run afresh at seed passSeed(seed, k), with its own fixer and
// generation streams and passkSamples samples per problem. Every pass
// thus does the same kind of work on different samples.
var passkEval = workload{
	name:    "passk-eval",
	clients: 1,
	units:   func(seconds int) int { return seconds },
	setup:   setupPasskEval,
}

// passkSuites are Table 2's suites in its order.
var passkSuites = []dataset.Suite{dataset.SuiteHuman, dataset.SuiteMachine}

// passkSamples is the samples per problem in one pass, about a second
// of work on a 2-core Xeon.
const passkSamples = 7

// passSeed is the Table 2 seed of pass k of a run.
func passSeed(seed int64, k int) int64 { return seed<<20 + int64(k) }

// passkProblem is one problem of a pass.
type passkProblem struct {
	suite   int // index into passkSuites
	index   int // within its suite
	problem *dataset.Problem
	rates   llm.GenRates
}

// passkPass is one pass's own state.
type passkPass struct {
	seed  int64
	fixer *core.RTLFixer
	rngs  []*rand.Rand // one generation stream per suite, as in Table 2
}

type passkOutcome struct {
	fixAttempted, fixed, passed bool
	code                        string // the scored candidate, kept when it passed
}

type passkRun struct {
	coll     *trace.Collector
	problems []passkProblem
	passes   []passkPass
	out      []passkOutcome
}

func setupPasskEval(seed int64, passes int, coll *trace.Collector, st *setupTimes) (runner, error) {
	r := &passkRun{coll: coll}
	for si, suite := range passkSuites {
		for pi, p := range dataset.Problems(suite) {
			rates := llm.SkewRates(llm.RatesFor(string(p.Suite), string(p.Difficulty)), p.ID)
			r.problems = append(r.problems, passkProblem{suite: si, index: pi, problem: p, rates: rates})
		}
	}
	for k := 0; k < passes; k++ {
		ps := passSeed(seed, k)
		f, err := st.newFixer(core.Options{
			CompilerName: "quartus",
			PersonaName:  "gpt-3.5",
			RAG:          true,
			Mode:         core.ModeReAct,
			Seed:         ps,
			Cache:        true,
		})
		if err != nil {
			return nil, err
		}
		pass := passkPass{seed: ps, fixer: f}
		for _, suite := range passkSuites {
			pass.rngs = append(pass.rngs, rand.New(rand.NewSource(ps*31+int64(len(suite)))))
		}
		r.passes = append(r.passes, pass)
	}
	r.out = make([]passkOutcome, r.ops())
	return r, nil
}

func (r *passkRun) ops() int { return len(r.passes) * r.window() }

func (r *passkRun) window() int { return len(r.problems) * passkSamples }

// sample locates operation i: its pass, and its problem's index in
// r.problems, which is its pass@k group within the pass.
func (r *passkRun) sample(i int) (pass *passkPass, problem int) {
	return &r.passes[i/r.window()], i % r.window() / passkSamples
}

// op scores one sample. The generation stream of its suite is shared
// with the fix seeds, drawn in the same order as Table 2 draws them, so
// each pass reproduces Table 2's counts at its seed.
func (r *passkRun) op(i int) error {
	pass, g := r.sample(i)
	smp := r.problems[g]
	rng := pass.rngs[smp.suite]
	vec := vecSeed(pass.seed, smp.index)
	root := r.coll.Start("op")
	defer root.End()
	if (i+1)%r.window() == 0 {
		// Release the pass's fixer and its caches after its last
		// sample, so one pass's fixer is live at a time.
		defer func() { pass.fixer = nil }()
	}

	sp := root.Child("llm.generate")
	sample := llm.Generate(smp.problem.RefSource, smp.rates, rng).Code
	sp.End()

	clean, ok := r.precleanCompile(root, sample)
	o := &r.out[i]
	if !ok {
		o.fixAttempted = true
		ag := root.Child("agent")
		tr := pass.fixer.FixTraced("main.v", sample, rng.Int63(), ag)
		ag.End()
		o.fixed = tr.Success
		if clean, ok = r.precleanCompile(root, tr.FinalCode); !ok {
			return nil // still a compile error: scored as failing
		}
	}
	// A check error, such as a candidate missing the testbench's clock
	// port, is Table 2's simulation-error outcome: the candidate fails,
	// the operation does not.
	sp = root.Child("dataset.check")
	res, err := smp.problem.Check(clean, rand.New(rand.NewSource(vec)))
	o.passed = err == nil && res.Passed()
	sp.SetBool("passed", o.passed)
	sp.End()
	if o.passed {
		o.code = clean
	}
	return nil
}

// precleanCompile runs the rule-based pre-fixer and the frontend, as
// Table 2 does before scoring any candidate.
func (r *passkRun) precleanCompile(root *trace.Span, code string) (string, bool) {
	sp := root.Child("fixer.fix")
	clean := fixer.Fix(code).Code
	sp.End()
	sp = root.Child("compiler.frontend")
	_, design, _ := compiler.Frontend(clean)
	sp.End()
	return clean, design != nil
}

// verify re-checks every candidate scored as passing on the reference
// tree-walking simulator, with the same vectors and golden model.
func (r *passkRun) verify(bad []bool) outcome {
	type key struct {
		problem, code string
		vec           int64
	}
	walkerPasses := map[key]bool{}
	n := make([]int, len(r.problems))
	c := make([]int, len(r.problems))
	attempted, fixed := 0, 0
	for i, o := range r.out {
		pass, g := r.sample(i)
		smp := r.problems[g]
		vec := vecSeed(pass.seed, smp.index)
		n[g]++
		if o.fixAttempted {
			attempted++
			if o.fixed {
				fixed++
			}
		}
		if !o.passed {
			continue
		}
		c[g]++
		k := key{string(smp.problem.Suite) + "/" + smp.problem.ID, o.code, vec}
		ok, seen := walkerPasses[k]
		if !seen {
			ok = passesOnWalker(smp.problem, o.code, vec)
			walkerPasses[k] = ok
		}
		if !ok {
			bad[i] = true
		}
	}
	pass1, _ := metrics.MeanPassAtK(n, c, 1)
	return outcome{fixRate: ratio(float64(fixed), float64(attempted)), passAt1: pass1}
}

func passesOnWalker(p *dataset.Problem, code string, vec int64) bool {
	_, design, _ := compiler.Frontend(code)
	if design == nil {
		return false
	}
	s, err := sim.NewWith(design, sim.EngineWalker)
	if err != nil {
		return false
	}
	vectors, err := p.Vectors(rand.New(rand.NewSource(vec)))
	if err != nil {
		return false
	}
	res, err := sim.RunTestbenchSim(s, p.Clock, vectors, p.NewGolden())
	return err == nil && res.Passed()
}

func (r *passkRun) close() {}
