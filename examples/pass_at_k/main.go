// pass_at_k demonstrates the Table 2 pipeline end-to-end on a small slice
// of the VerilogEval-Machine benchmark: sample implementations from the
// simulated model, measure functional correctness by simulation, fix the
// syntax failures with RTLFixer, and measure again.
package main

import (
	"fmt"
	"math/rand"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fixer"
	"repro/internal/llm"
	"repro/internal/metrics"
)

func main() {
	rtlfixer, err := core.New(core.Options{
		CompilerName: "quartus",
		PersonaName:  "gpt-3.5",
		RAG:          true,
		Mode:         core.ModeReAct,
		Seed:         11,
	})
	if err != nil {
		panic(err)
	}

	problems := dataset.Problems(dataset.SuiteMachine)[:12]
	rng := rand.New(rand.NewSource(11))
	const samplesPerProblem = 10

	var ns, origPass, fixedPass []int
	fmt.Printf("%-24s %-10s %-10s\n", "problem", "orig c/n", "fixed c/n")
	for pi, p := range problems {
		rates := llm.SkewRates(llm.RatesFor(string(p.Suite), string(p.Difficulty)), p.ID)
		orig, fixed := 0, 0
		for s := 0; s < samplesPerProblem; s++ {
			sample := llm.Generate(p.RefSource, rates, rng).Code

			if passes(p, sample, int64(pi)) {
				orig++
				fixed++
				continue
			}
			// Only compile failures go through the agent: RTLFixer
			// addresses syntax, not logic.
			clean := fixer.Fix(sample).Code
			if _, design, _ := compiler.Frontend(clean); design != nil {
				continue // simulation error: fixing syntax will not help
			}
			tr := rtlfixer.Fix("sample.v", sample, rng.Int63())
			if passes(p, tr.FinalCode, int64(pi)) {
				fixed++
			}
		}
		ns = append(ns, samplesPerProblem)
		origPass = append(origPass, orig)
		fixedPass = append(fixedPass, fixed)
		fmt.Printf("%-24s %d/%-8d %d/%-8d\n", p.ID, orig, samplesPerProblem, fixed, samplesPerProblem)
	}

	o1, _ := metrics.MeanPassAtK(ns, origPass, 1)
	f1, _ := metrics.MeanPassAtK(ns, fixedPass, 1)
	o5, _ := metrics.MeanPassAtK(ns, origPass, 5)
	f5, _ := metrics.MeanPassAtK(ns, fixedPass, 5)
	fmt.Printf("\npass@1: %.3f -> %.3f (+%.3f from syntax fixing alone)\n", o1, f1, f1-o1)
	fmt.Printf("pass@5: %.3f -> %.3f\n", o5, f5)
}

// passes compiles a candidate and simulates it in lockstep with the
// problem's reference RTL, the oracle: every reference output must match
// after every vector.
func passes(p *dataset.Problem, code string, vecSeed int64) bool {
	clean := fixer.Fix(code).Code
	if _, design, _ := compiler.Frontend(clean); design == nil {
		return false
	}
	res, err := p.Check(clean, rand.New(rand.NewSource(vecSeed)))
	return err == nil && res.Passed()
}
