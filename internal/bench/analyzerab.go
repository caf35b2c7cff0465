package bench

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/curate"
)

// This file is the analyzer A/B: the same curated dataset run through
// the same ReAct+RAG+Quartus fixer with the semantic lint engine
// (internal/analyze) on and off. The analyzer's findings ride along in
// every failing compile observation the model sees; because the
// simulated model's log analysis deliberately ignores the lint dialect
// (it keys on compiler-error shapes only), the measured fix rates must
// be identical — the table demonstrates the findings are surfaced at
// zero cost to the repair loop, and gives the harness a real LLM could
// be dropped into.

// AnalyzerABArm is one side of the A/B.
type AnalyzerABArm struct {
	// Analyzer is true for the findings-on arm.
	Analyzer bool
	// FixRate is metrics.FixRate over the curated entries.
	FixRate float64
	// LintFindings is the total count of analyzer findings surfaced to
	// the model across all transcripts (necessarily 0 for the off arm).
	LintFindings int
	Jobs         int
}

// AnalyzerABResult is the experiment output.
type AnalyzerABResult struct {
	On  AnalyzerABArm
	Off AnalyzerABArm
	// RatesEqual records the designed invariant: both arms measured the
	// same fix rate.
	RatesEqual bool
}

// RunAnalyzerAB measures both arms over the curated dataset.
func RunAnalyzerAB(seed int64, repeats int, entries []curate.Entry, workers int, cache bool) *AnalyzerABResult {
	if repeats <= 0 {
		repeats = 3
	}
	arm := func(disable bool) AnalyzerABArm {
		f, err := core.New(core.Options{
			CompilerName:    "quartus",
			RAG:             true,
			Mode:            core.ModeReAct,
			Seed:            seed,
			Cache:           cache,
			DisableAnalyzer: disable,
		})
		if err != nil {
			panic(err) // fixed configuration: always valid
		}
		sum := runFixRateJobs(f, entries, repeats, workers)
		return AnalyzerABArm{
			Analyzer:     !disable,
			FixRate:      sum.FixRate,
			LintFindings: sum.LintFindings,
			Jobs:         sum.Jobs,
		}
	}
	res := &AnalyzerABResult{On: arm(false), Off: arm(true)}
	res.RatesEqual = res.On.FixRate == res.Off.FixRate
	return res
}

// Render formats the A/B table.
func (r *AnalyzerABResult) Render() string {
	var b strings.Builder
	b.WriteString("Analyzer A/B (ReAct+RAG+Quartus, semantic lint findings in model feedback):\n")
	fmt.Fprintf(&b, "  %-14s %-10s %-18s %s\n", "analyzer", "fix rate", "findings surfaced", "jobs")
	row := func(a AnalyzerABArm) {
		on := "off"
		if a.Analyzer {
			on = "on"
		}
		fmt.Fprintf(&b, "  %-14s %-10.3f %-18d %d\n", on, a.FixRate, a.LintFindings, a.Jobs)
	}
	row(r.On)
	row(r.Off)
	if r.RatesEqual {
		b.WriteString("  fix rates identical: the lint dialect is invisible to the simulated\n")
		b.WriteString("  model's log analysis, so findings reach the prompt at zero cost.\n")
	} else {
		b.WriteString("  WARNING: fix rates differ — the lint lines leaked into log analysis.\n")
	}
	return b.String()
}

// AnalyzerABJSON is the marshal-safe form.
type AnalyzerABJSON struct {
	FixRateOn   float64 `json:"fix_rate_on"`
	FixRateOff  float64 `json:"fix_rate_off"`
	FindingsOn  int     `json:"findings_surfaced_on"`
	FindingsOff int     `json:"findings_surfaced_off"`
	Jobs        int     `json:"jobs"`
	RatesEqual  bool    `json:"rates_equal"`
}

// JSON returns the marshal-safe form.
func (r *AnalyzerABResult) JSON() AnalyzerABJSON {
	return AnalyzerABJSON{
		FixRateOn:   r.On.FixRate,
		FixRateOff:  r.Off.FixRate,
		FindingsOn:  r.On.LintFindings,
		FindingsOff: r.Off.LintFindings,
		Jobs:        r.On.Jobs,
		RatesEqual:  r.RatesEqual,
	}
}
