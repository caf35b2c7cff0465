package bench

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/curate"
	"repro/internal/rag"
)

// This file holds ablations beyond the paper's tables, probing the design
// choices DESIGN.md calls out:
//
//   - retriever choice (the paper mentions pattern-matching, fuzzy search,
//     and similarity search as alternatives to its exact-tag match);
//   - the ReAct iteration budget (the paper fixes n=10);
//   - the guidance-database size (how much of RAG's gain survives with
//     fewer curated entries).

// AblationResult is one named configuration's fix rate.
type AblationResult struct {
	Name    string
	FixRate float64
}

// runFixRate measures the ReAct fix rate over entries for a fully built
// fixer configuration, fanning the attempts out over the worker pool.
func runFixRate(f *core.RTLFixer, entries []curate.Entry, repeats, workers int) float64 {
	return runFixRateJobs(f, entries, repeats, workers).FixRate
}

// RunRetrieverAblation compares retrieval strategies under the full
// configuration (ReAct + RAG + Quartus + gpt-3.5), plus the no-RAG
// baseline. workers sizes the evaluation pool (<= 0 = runtime.NumCPU()).
func RunRetrieverAblation(seed int64, repeats int, entries []curate.Entry, workers int) []AblationResult {
	if entries == nil {
		entries, _ = curate.Build(curate.Options{Seed: seed})
	}
	if repeats == 0 {
		repeats = 3
	}
	configs := []struct {
		name      string
		retriever rag.Retriever
		ragOn     bool
	}{
		{"no-rag", nil, false},
		{"exact-tag", rag.ExactTag{}, true},
		{"fuzzy-jaccard", rag.Fuzzy{}, true},
		{"keyword", rag.Keyword{}, true},
	}
	var out []AblationResult
	for _, cfg := range configs {
		f := newFixer(core.Options{
			CompilerName: "quartus",
			RAG:          cfg.ragOn,
			Retriever:    cfg.retriever,
			Mode:         core.ModeReAct,
			Seed:         seed,
		})
		out = append(out, AblationResult{Name: cfg.name,
			FixRate: runFixRate(f, entries, repeats, workers)})
	}
	return out
}

// RunIterationBudgetAblation sweeps the ReAct iteration budget 1..max,
// locating the knee implied by Figure 7.
func RunIterationBudgetAblation(seed int64, repeats, max int, entries []curate.Entry, workers int) []AblationResult {
	if entries == nil {
		entries, _ = curate.Build(curate.Options{Seed: seed})
	}
	if repeats == 0 {
		repeats = 3
	}
	if max == 0 {
		max = 10
	}
	var out []AblationResult
	for budget := 1; budget <= max; budget++ {
		f := newFixer(core.Options{
			CompilerName:  "quartus",
			RAG:           true,
			Mode:          core.ModeReAct,
			MaxIterations: budget,
			Seed:          seed,
		})
		out = append(out, AblationResult{
			Name:    fmt.Sprintf("budget=%d", budget),
			FixRate: runFixRate(f, entries, repeats, workers),
		})
	}
	return out
}

// truncatedRetriever wraps a retriever over a truncated database: core
// builds its own curated DB, so the truncation happens at retrieval time.
type truncatedRetriever struct {
	inner rag.Retriever
	keep  int
}

// Name implements rag.Retriever.
func (t truncatedRetriever) Name() string { return fmt.Sprintf("exact-tag[first %d]", t.keep) }

// Retrieve implements rag.Retriever.
func (t truncatedRetriever) Retrieve(db *rag.Database, log string, k int) []rag.Entry {
	entries := db.Entries()
	if t.keep < len(entries) {
		entries = entries[:t.keep]
	}
	return t.inner.Retrieve(rag.NewDatabase(entries), log, k)
}

// RunGuidanceSizeAblation truncates the curated Quartus database to
// fractions of its 45 entries and measures the fix rate.
func RunGuidanceSizeAblation(seed int64, repeats int, entries []curate.Entry, workers int) []AblationResult {
	if entries == nil {
		entries, _ = curate.Build(curate.Options{Seed: seed})
	}
	if repeats == 0 {
		repeats = 3
	}
	full := rag.QuartusDB().Len()
	var out []AblationResult
	for _, keep := range []int{0, full / 4, full / 2, full} {
		opts := core.Options{CompilerName: "quartus", Mode: core.ModeReAct, Seed: seed}
		if keep > 0 {
			// The truncating retriever is a custom strategy, so the
			// retrieval index passes it through uncached; the compile
			// cache still applies.
			opts.RAG, opts.Retriever = true, truncatedRetriever{inner: rag.ExactTag{}, keep: keep}
		}
		f := newFixer(opts)
		out = append(out, AblationResult{
			Name:    fmt.Sprintf("entries=%d", keep),
			FixRate: runFixRate(f, entries, repeats, workers),
		})
	}
	return out
}

// RenderAblation formats a result list.
func RenderAblation(title string, results []AblationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, r := range results {
		fmt.Fprintf(&b, "  %-24s %.3f\n", r.Name, r.FixRate)
	}
	return b.String()
}
