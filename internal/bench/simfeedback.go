package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fixer"
	"repro/internal/llm"
	"repro/internal/sim"
	"repro/internal/wave"
)

// This file reproduces the paper's §5 discussion ("Challenges in
// Debugging Simulation Errors") as a measurable experiment: after syntax
// fixing, feed simulation-mismatch feedback (output error counts and a
// first-mismatch excerpt, the same feedback style the authors tried) to
// the model and let it attempt logic repairs. The paper's finding is that
// improvements beyond syntax fixing are limited and concentrated on
// simple problems — this harness measures exactly that.

// SimFeedbackResult summarizes the experiment.
type SimFeedbackResult struct {
	// Pass1AfterSyntax is pass@1 after syntax fixing only (the Table 2
	// "fixed" column).
	Pass1AfterSyntax float64
	// Pass1AfterSimRepair adds the simulation-feedback repair loop.
	Pass1AfterSimRepair float64
	// EasyGain / HardGain split the improvement by problem difficulty:
	// the paper observes proficiency "only ... for simple problems".
	EasyGain float64
	HardGain float64
	Problems int
	Samples  int
}

// simRepairAttempts bounds the logic-repair loop, mirroring the syntax
// loop's iteration budget.
const simRepairAttempts = 5

// RunSimFeedback measures the gain from simulation-error feedback on the
// Human suite.
func RunSimFeedback(seed int64, sampleN int) *SimFeedbackResult {
	if sampleN == 0 {
		sampleN = 8
	}
	problems := dataset.Problems(dataset.SuiteHuman)
	rng := rand.New(rand.NewSource(seed*13 + 1))

	rtlfixer := newFixer(core.Options{
		CompilerName: "quartus", RAG: true, Mode: core.ModeReAct, Seed: seed})
	persona := llm.GPT35()

	res := &SimFeedbackResult{Problems: len(problems)}
	var easySyntax, easySim, easyN float64
	var hardSyntax, hardSim, hardN float64

	for pi, p := range problems {
		rates := llm.SkewRates(llm.RatesFor(string(p.Suite), string(p.Difficulty)), p.ID)
		vecSeed := seed ^ int64(pi)*104729
		for s := 0; s < sampleN; s++ {
			sample := llm.Generate(p.RefSource, rates, rng).Code
			res.Samples++

			// Stage 1: syntax fixing (the paper's pipeline).
			code := fixer.Fix(sample).Code
			if _, design, _ := compiler.Frontend(code); design == nil {
				tr := rtlfixer.Fix("main.v", sample, rng.Int63())
				code = tr.FinalCode
			}
			syntaxOut, _ := evaluate(p, code, vecSeed, sim.TBObserve{})
			syntaxPass := syntaxOut == outcomePassed

			// Stage 2: simulation-feedback repair for the samples that
			// compile but fail simulation.
			simPass := syntaxPass
			if !syntaxPass {
				if _, design, _ := compiler.Frontend(code); design != nil {
					repaired := simRepairLoop(p, code, persona, vecSeed, rng)
					simOut, _ := evaluate(p, repaired, vecSeed, sim.TBObserve{})
					simPass = simOut == outcomePassed
				}
			}

			bucket := func(syntaxOK, simOK bool) {
				sv, mv := 0.0, 0.0
				if syntaxOK {
					sv = 1
				}
				if simOK {
					mv = 1
				}
				if p.Difficulty == dataset.Easy {
					easySyntax += sv
					easySim += mv
					easyN++
				} else {
					hardSyntax += sv
					hardSim += mv
					hardN++
				}
			}
			bucket(syntaxPass, simPass)
		}
	}

	total := easyN + hardN
	res.Pass1AfterSyntax = (easySyntax + hardSyntax) / total
	res.Pass1AfterSimRepair = (easySim + hardSim) / total
	if easyN > 0 {
		res.EasyGain = (easySim - easySyntax) / easyN
	}
	if hardN > 0 {
		res.HardGain = (hardSim - hardSyntax) / hardN
	}
	return res
}

// SimFeedbackText renders the paper-style simulation feedback for a
// failing candidate: the mismatch summary plus a bounded VCD excerpt
// windowed around the first mismatch — the text an agent iteration sees.
// It draws only from a vecSeed-derived generator, so callers inside a
// seeded experiment consume nothing from their campaign RNG. Empty when
// the candidate does not compile, errors out, or actually passes.
func SimFeedbackText(p *dataset.Problem, code string, vecSeed int64) string {
	_, r := evaluate(p, code, vecSeed, sim.TBObserve{Recorder: wave.NewRecorder(8)})
	if r.Passed() {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "simulation failed: %d mismatches over %d cycles; first: %s\n",
		r.Mismatches, r.Cycles, r.FirstMismatch)
	if r.Waveform != "" {
		b.WriteString("waveform excerpt around the first mismatch:\n")
		b.WriteString(r.Waveform)
	}
	return b.String()
}

// simRepairLoop models the paper's attempt: show the model the mismatch
// summary, let it revise, resimulate. Crucially the model does NOT get an
// oracle over candidate edits — the paper's observation is precisely that
// LLMs "had constrained capabilities to comprehend simulation feedback",
// so each revision is a best-guess local semantic edit applied blind;
// only the final result is scored. Success therefore requires the edit
// walk to land on behaviourally correct code, which happens mostly on
// short, simple modules whose defect is a single invertible operator.
func simRepairLoop(p *dataset.Problem, code string, persona llm.Persona, vecSeed int64, rng *rand.Rand) string {
	// Comprehension gate: the paper found the model "only exhibited
	// proficiency in fixing logic implementation errors for simple
	// problems but struggled with more complex questions". Whether the
	// model understands the waveform-style feedback at all is a
	// per-sample event whose probability collapses with difficulty.
	pComprehend := 0.35 * persona.DefaultCompetence / 0.55
	if p.Difficulty == dataset.Hard {
		pComprehend = 0.05 * persona.DefaultCompetence / 0.55
	}
	if rng.Float64() > pComprehend {
		return code
	}
	// The comprehending model is shown the mismatch summary plus a
	// waveform excerpt around the first failing cycle. The feedback is
	// built from the vecSeed stream only, so the campaign RNG (and with
	// it every published rate) is untouched by observability.
	if feedback := SimFeedbackText(p, code, vecSeed); feedback == "" {
		return code // errored rather than mismatched: nothing actionable
	}
	cur := code
	for attempt := 0; attempt < simRepairAttempts; attempt++ {
		candidate := llm.ProposeLogicEdit(cur, rng)
		if candidate == cur {
			continue
		}
		if _, design, _ := compiler.Frontend(candidate); design == nil {
			continue // broke the syntax: the model discards that draft
		}
		cur = candidate
		// The only signal the loop acts on is pass/fail of a full
		// resimulation between iterations.
		if out, _ := evaluate(p, cur, vecSeed, sim.TBObserve{}); out == outcomePassed {
			return cur
		}
	}
	return cur
}

// Render formats the result.
func (r *SimFeedbackResult) Render() string {
	var b strings.Builder
	b.WriteString("Simulation-feedback extension (paper §5):\n")
	fmt.Fprintf(&b, "  pass@1 after syntax fixing only:   %.3f\n", r.Pass1AfterSyntax)
	fmt.Fprintf(&b, "  pass@1 after +simulation feedback: %.3f\n", r.Pass1AfterSimRepair)
	fmt.Fprintf(&b, "  gain on easy problems: %+.3f\n", r.EasyGain)
	fmt.Fprintf(&b, "  gain on hard problems: %+.3f\n", r.HardGain)
	return b.String()
}
