package bench

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/pipeline"
)

// Table3Config parameterizes the RTLLM generalization experiment.
type Table3Config struct {
	Seed    int64
	SampleN int // samples per problem (default 20)
	// Workers sizes the fixing pool; <= 0 means runtime.NumCPU().
	Workers int
	// Cache enables the sharded memoization layer (internal/memo).
	// Table output is byte-identical with it on or off.
	Cache bool
}

func (c Table3Config) withDefaults() Table3Config {
	if c.SampleN == 0 {
		c.SampleN = 20
	}
	return c
}

// Table3Result reproduces Table 3: syntax success rate and pass@1 on the
// RTLLM-style suite, before and after RTLFixer (ReAct + RAG + Quartus),
// with *no new guidance entries* added for the new benchmark — the
// generalization claim.
type Table3Result struct {
	OrigSyntaxRate  float64
	FixedSyntaxRate float64
	OrigPass1       float64
	FixedPass1      float64
	Problems        int
	Samples         int
}

// RunTable3 runs the experiment.
func RunTable3(cfg Table3Config) *Table3Result {
	cfg = cfg.withDefaults()
	problems := dataset.Problems(dataset.SuiteRTLLM)
	rng := rand.New(rand.NewSource(cfg.Seed*17 + 3))

	rtlfixer, err := core.New(core.Options{
		CompilerName: "quartus",
		PersonaName:  "gpt-3.5",
		RAG:          true, // the same curated DB as Table 1: nothing new
		Mode:         core.ModeReAct,
		Seed:         cfg.Seed,
		Cache:        cfg.Cache,
	})
	if err != nil {
		panic(err)
	}

	res := &Table3Result{Problems: len(problems)}
	origCompiles, fixedCompiles, total := 0, 0, 0

	// Phase A (sequential, shared RNG stream): generate, score originals,
	// queue fix jobs for compile failures. Phase B: parallel agent runs.
	// Phase C: re-score in sample order — same staging as RunTable2.
	type sampleRec struct {
		pi      int
		vecSeed int64
		orig    sampleOutcome
		fixJob  int
	}
	var recs []sampleRec
	var jobs []pipeline.Job
	ns := make([]int, len(problems))
	origPass := make([]int, len(problems))
	fixedPass := make([]int, len(problems))
	for pi, p := range problems {
		rates := llm.SkewRates(llm.RatesFor(string(p.Suite), string(p.Difficulty)), p.ID)
		vecSeed := cfg.Seed ^ int64(pi)*7919
		for s := 0; s < cfg.SampleN; s++ {
			sample := llm.Generate(p.RefSource, rates, rng).Code
			total++
			ns[pi]++

			orig := evaluate(p, sample, vecSeed)
			if orig != outcomeCompileError {
				origCompiles++
			}
			if orig == outcomePassed {
				origPass[pi]++
			}
			rec := sampleRec{pi: pi, vecSeed: vecSeed, orig: orig, fixJob: -1}
			if orig == outcomeCompileError {
				rec.fixJob = len(jobs)
				jobs = append(jobs, pipeline.Job{
					Group:      pi,
					Filename:   "main.v",
					Code:       sample,
					SampleSeed: rng.Int63(),
				})
			}
			recs = append(recs, rec)
		}
	}

	fixResults, err := pipeline.Run(context.Background(), pipeline.Config{Workers: cfg.Workers, Tracer: tracer}, jobs,
		pipeline.FixWith(rtlfixer))
	if err != nil {
		panic(err) // background context: cannot be canceled
	}

	for _, rec := range recs {
		fixed := rec.orig
		if rec.fixJob >= 0 {
			fixed = evaluate(problems[rec.pi], fixResults[rec.fixJob].Transcript.FinalCode, rec.vecSeed)
		}
		if fixed != outcomeCompileError {
			fixedCompiles++
		}
		if fixed == outcomePassed {
			fixedPass[rec.pi]++
		}
	}

	res.Samples = total
	res.OrigSyntaxRate = float64(origCompiles) / float64(total)
	res.FixedSyntaxRate = float64(fixedCompiles) / float64(total)
	res.OrigPass1, _ = metrics.MeanPassAtK(ns, origPass, 1)
	res.FixedPass1, _ = metrics.MeanPassAtK(ns, fixedPass, 1)
	return res
}

// Render formats the result in the paper's Table 3 layout.
func (r *Table3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: RTLLM generalization (%d problems, %d samples)\n", r.Problems, r.Samples)
	fmt.Fprintf(&b, "%-24s %-20s %-8s\n", "LLM", "Syntax Success Rate", "pass@1")
	fmt.Fprintf(&b, "%-24s %-20s %-8s\n", "GPT-3.5",
		fmt.Sprintf("%.0f%%", 100*r.OrigSyntaxRate), fmt.Sprintf("%.0f%%", 100*r.OrigPass1))
	fmt.Fprintf(&b, "%-24s %-20s %-8s\n", "GPT-3.5 + RTLFixer",
		fmt.Sprintf("%.0f%%", 100*r.FixedSyntaxRate), fmt.Sprintf("%.0f%%", 100*r.FixedPass1))
	return b.String()
}
