package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fixer"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// Table2Config parameterizes the pass@k experiment.
type Table2Config struct {
	// Seed drives generation, fixing, and testbench vectors.
	Seed int64
	// SampleN is the paper's n=20 samples per problem.
	SampleN int
	// MaxProblems truncates each suite for quick runs (0 = all).
	MaxProblems int
	// Suites to evaluate; default Machine + Human.
	Suites []dataset.Suite
	// Workers sizes the fixing pool; <= 0 means runtime.NumCPU().
	// Results are identical for any worker count: sample generation stays
	// on one RNG stream, only the agent runs are parallel.
	Workers int
	// Deprecated: ignored; the memo layer is always on.
	Cache bool
}

func (c Table2Config) withDefaults() Table2Config {
	if c.SampleN == 0 {
		c.SampleN = 20
	}
	if len(c.Suites) == 0 {
		c.Suites = []dataset.Suite{dataset.SuiteHuman, dataset.SuiteMachine}
	}
	return c
}

// Table2Row is one row of Table 2: a (suite, subset) cell with original
// and fixed pass@1 / pass@5.
type Table2Row struct {
	Suite  dataset.Suite
	Subset string // "All", "easy", "hard"
	Orig1  float64
	Fixed1 float64
	Orig5  float64
	Fixed5 float64
}

// OutcomeShares are Figure 4's ring fractions, keyed by
// "{passed|compile-error|simulation-error}-{easy|hard}".
type OutcomeShares map[string]float64

// Table2Result carries the rows plus the Figure 4 data computed from the
// same run (inner ring = original, outer ring = after fixing).
type Table2Result struct {
	Rows []Table2Row
	Fig4 map[dataset.Suite]struct {
		Inner OutcomeShares
		Outer OutcomeShares
	}
	// SyntaxErrorShare is, per suite, the fraction of *failing* original
	// samples whose failure is a compile error — the paper's "55% of
	// errors are syntax" claim for Human.
	SyntaxErrorShare map[dataset.Suite]float64
}

// sampleOutcome classifies one sample against its problem.
type sampleOutcome int

const (
	outcomePassed sampleOutcome = iota
	outcomeCompileError
	outcomeSimError
)

func (o sampleOutcome) String() string {
	switch o {
	case outcomePassed:
		return "passed"
	case outcomeCompileError:
		return "compile-error"
	default:
		return "simulation-error"
	}
}

// evaluate is the one scorer of a candidate: pre-fix it, require a
// clean frontend, then check it on the problem's testbench (stimulus
// drawn from vecSeed) with obs attached. The check result is returned
// only when the run completed; it is zero, and so reads as passed, when
// the candidate does not compile or the check errors.
func evaluate(p *dataset.Problem, code string, vecSeed int64, obs sim.TBObserve) (sampleOutcome, sim.TBResult) {
	clean := fixer.Fix(code).Code
	if _, design, _ := compiler.Frontend(clean); design == nil {
		return outcomeCompileError, sim.TBResult{}
	}
	res, err := p.CheckObserved(clean, rand.New(rand.NewSource(vecSeed)), obs)
	if err != nil {
		return outcomeSimError, sim.TBResult{}
	}
	if !res.Passed() {
		return outcomeSimError, res
	}
	return outcomePassed, res
}

// RunTable2 reproduces Table 2 and Figure 4: generate n samples per
// problem, measure pass@k, then fix syntax errors with the full RTLFixer
// configuration (ReAct + RAG + Quartus) and measure again.
//
// The run is staged for determinism under parallelism: phase A walks the
// suite sequentially on the shared RNG stream (generation + original
// outcome + per-sample fix seeds), phase B fans the expensive agent runs
// out over the pipeline's worker pool, and phase C re-scores and tallies
// in the original sample order.
func RunTable2(cfg Table2Config) *Table2Result {
	cfg = cfg.withDefaults()
	res := &Table2Result{
		Fig4: map[dataset.Suite]struct {
			Inner OutcomeShares
			Outer OutcomeShares
		}{},
		SyntaxErrorShare: map[dataset.Suite]float64{},
	}

	rtlfixer := newFixer(core.Options{
		CompilerName: "quartus",
		PersonaName:  "gpt-3.5",
		RAG:          true,
		Mode:         core.ModeReAct,
		Seed:         cfg.Seed,
	})

	for _, suite := range cfg.Suites {
		problems := dataset.Problems(suite)
		if cfg.MaxProblems > 0 && len(problems) > cfg.MaxProblems {
			problems = problems[:cfg.MaxProblems]
		}
		rng := rand.New(rand.NewSource(cfg.Seed*31 + int64(len(suite))))

		type problemTally struct {
			difficulty dataset.Difficulty
			origPass   int
			fixedPass  int
			n          int
		}
		tallies := make([]problemTally, len(problems))
		inner := OutcomeShares{}
		outer := OutcomeShares{}
		totalSamples := 0
		failingSamples := 0
		syntaxFailures := 0

		// Phase A: generate and score originals sequentially; queue a fix
		// job (with its seed drawn here, on the shared stream) for every
		// compile failure — the paper addresses syntax errors only.
		type sampleRec struct {
			pi      int
			vecSeed int64
			orig    sampleOutcome
			fixJob  int // index into jobs; -1 when the sample is untouched
		}
		var recs []sampleRec
		var jobs []pipeline.Job
		for pi, p := range problems {
			tallies[pi].difficulty = p.Difficulty
			rates := llm.SkewRates(llm.RatesFor(string(p.Suite), string(p.Difficulty)), p.ID)
			vecSeed := cfg.Seed ^ int64(pi)*104729
			for s := 0; s < cfg.SampleN; s++ {
				sample := llm.Generate(p.RefSource, rates, rng).Code
				totalSamples++
				tallies[pi].n++

				orig, _ := evaluate(p, sample, vecSeed, sim.TBObserve{})
				inner[orig.String()+"-"+string(p.Difficulty)]++
				rec := sampleRec{pi: pi, vecSeed: vecSeed, orig: orig, fixJob: -1}
				if orig == outcomePassed {
					tallies[pi].origPass++
				} else {
					failingSamples++
					if orig == outcomeCompileError {
						syntaxFailures++
						rec.fixJob = len(jobs)
						jobs = append(jobs, pipeline.Job{
							Group:      pi,
							Filename:   "main.v",
							Code:       sample,
							SampleSeed: rng.Int63(),
						})
					}
				}
				recs = append(recs, rec)
			}
		}

		// Phase B: the agent runs, fanned out over the pool.
		fixResults, err := pipeline.Run(context.Background(), pipeline.Config{Workers: cfg.Workers, Tracer: tracer}, jobs,
			pipeline.FixWith(rtlfixer))
		if err != nil {
			panic(err) // background context: cannot be canceled
		}

		// Phase C: re-score in sample order. Untouched samples keep their
		// original outcome (evaluate is a pure function of code + seed).
		for _, rec := range recs {
			p := problems[rec.pi]
			fixed := rec.orig
			if rec.fixJob >= 0 {
				fixed, _ = evaluate(p, fixResults[rec.fixJob].Transcript.FinalCode, rec.vecSeed, sim.TBObserve{})
			}
			outer[fixed.String()+"-"+string(p.Difficulty)]++
			if fixed == outcomePassed {
				tallies[rec.pi].fixedPass++
			}
		}

		normalize(inner, float64(totalSamples))
		normalize(outer, float64(totalSamples))
		entry := res.Fig4[suite]
		entry.Inner = inner
		entry.Outer = outer
		res.Fig4[suite] = entry
		if failingSamples > 0 {
			res.SyntaxErrorShare[suite] = float64(syntaxFailures) / float64(failingSamples)
		}

		for _, subset := range []string{"All", "easy", "hard"} {
			var ns, origs, fixeds []int
			for _, t := range tallies {
				if subset != "All" && string(t.difficulty) != subset {
					continue
				}
				ns = append(ns, t.n)
				origs = append(origs, t.origPass)
				fixeds = append(fixeds, t.fixedPass)
			}
			if len(ns) == 0 {
				continue
			}
			row := Table2Row{Suite: suite, Subset: subset}
			row.Orig1, _ = metrics.MeanPassAtK(ns, origs, 1)
			row.Fixed1, _ = metrics.MeanPassAtK(ns, fixeds, 1)
			row.Orig5, _ = metrics.MeanPassAtK(ns, origs, 5)
			row.Fixed5, _ = metrics.MeanPassAtK(ns, fixeds, 5)
			res.Rows = append(res.Rows, row)
		}
	}
	return res
}

// Row finds a row.
func (r *Table2Result) Row(suite dataset.Suite, subset string) (Table2Row, bool) {
	for _, row := range r.Rows {
		if row.Suite == suite && row.Subset == subset {
			return row, true
		}
	}
	return Table2Row{}, false
}

// Render formats the rows in the paper's Table 2 layout.
func (r *Table2Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 2: pass@k on VerilogEval before (original) and after (fixed) syntax fixing\n")
	fmt.Fprintf(&b, "%-9s %-5s %-9s %-9s %-9s %-9s\n", "Dataset", "Set", "p@1 orig", "p@1 fix", "p@5 orig", "p@5 fix")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-9s %-5s %-9.3f %-9.3f %-9.3f %-9.3f\n",
			row.Suite, row.Subset, row.Orig1, row.Fixed1, row.Orig5, row.Fixed5)
	}
	return b.String()
}

// RenderFigure4 prints the ring shares the paper plots as pie charts.
func (r *Table2Result) RenderFigure4() string {
	var b strings.Builder
	b.WriteString("Figure 4: outcome shares prior (inner) and post (outer) syntax fixing\n")
	keys := []string{
		"passed-easy", "passed-hard",
		"compile-error-easy", "compile-error-hard",
		"simulation-error-easy", "simulation-error-hard",
	}
	suites := make([]dataset.Suite, 0, len(r.Fig4))
	for suite := range r.Fig4 {
		suites = append(suites, suite)
	}
	sort.Slice(suites, func(i, j int) bool { return suites[i] < suites[j] })
	for _, suite := range suites {
		rings := r.Fig4[suite]
		fmt.Fprintf(&b, "\nVerilogEval-%s:\n", suite)
		fmt.Fprintf(&b, "  %-24s %-8s %-8s\n", "category", "inner", "outer")
		for _, k := range keys {
			fmt.Fprintf(&b, "  %-24s %6.1f%%  %6.1f%%\n", k, 100*rings.Inner[k], 100*rings.Outer[k])
		}
	}
	return b.String()
}

func normalize(m OutcomeShares, total float64) {
	if total == 0 {
		return
	}
	for k := range m {
		m[k] /= total
	}
}
