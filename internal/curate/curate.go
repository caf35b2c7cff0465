// Package curate builds the VerilogEval-syntax debugging dataset the way
// §3.4 describes: sample erroneous implementations from the benchmark
// problems, filter (extract code from markdown, validate module
// statements, drop empties and prose), then cluster with DBSCAN over
// Jaccard distance and keep representative examples. The paper lands on
// 212 erroneous implementations; so does this pipeline.
package curate

import (
	"math/rand"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/compiler"
	"repro/internal/dataset"
	"repro/internal/fixer"
	"repro/internal/inject"
	"repro/internal/llm"
)

// TargetSize is the paper's dataset size (abstract and §3.4).
const TargetSize = 212

// Entry is one curated erroneous implementation.
type Entry struct {
	// ProblemID names the source benchmark problem.
	ProblemID string
	// Suite is the problem's original suite.
	Suite dataset.Suite
	// Description is the problem prompt.
	Description string
	// Code is the erroneous implementation (post-filtering).
	Code string
	// Mutations is the ground-truth error record.
	Mutations []inject.Mutation
	// LogicOK is true when the code is functionally correct underneath
	// its syntax errors.
	LogicOK bool
	// SampleSeed is a stable per-entry seed for the simulated model's
	// capability rolls.
	SampleSeed int64
}

// Options controls the pipeline.
type Options struct {
	// Seed drives all sampling.
	Seed int64
	// Oversample is how many raw samples to draw per problem before
	// filtering (default 6).
	Oversample int
	// Eps is the DBSCAN radius in Jaccard distance (default 0.35).
	Eps float64
	// MinPts is the DBSCAN density threshold (default 2).
	MinPts int
	// Target is the final dataset size (default TargetSize).
	Target int
}

func (o Options) withDefaults() Options {
	if o.Oversample == 0 {
		o.Oversample = 6
	}
	if o.Eps == 0 {
		o.Eps = 0.35
	}
	if o.MinPts == 0 {
		o.MinPts = 2
	}
	if o.Target == 0 {
		o.Target = TargetSize
	}
	return o
}

// Stats reports what the pipeline did at each stage.
type Stats struct {
	Sampled        int
	CompileFailing int
	Filtered       int
	Clusters       int
	Final          int
}

// Build runs sampling → filtering → clustering → selection.
func Build(opts Options) ([]Entry, Stats) {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	var stats Stats

	// --- sampling: draw syntax-leaning samples from both VerilogEval
	// suites, mirroring the paper's One-shot/ReAct sampling with
	// gpt-3.5-turbo, "retaining only error-inducing samples".
	var raw []Entry
	for _, suite := range []dataset.Suite{dataset.SuiteMachine, dataset.SuiteHuman} {
		for _, p := range dataset.Problems(suite) {
			rates := llm.RatesFor(string(p.Suite), string(p.Difficulty))
			for i := 0; i < opts.Oversample; i++ {
				s := llm.Generate(p.RefSource, rates, rng)
				stats.Sampled++
				if s.Kind != llm.KindSyntaxErr {
					continue
				}
				raw = append(raw, Entry{
					ProblemID:   p.ID,
					Suite:       p.Suite,
					Description: p.Description,
					Code:        s.Code,
					Mutations:   s.Mutations,
					LogicOK:     s.LogicOK,
					SampleSeed:  rng.Int63(),
				})
			}
		}
	}

	// --- filtering: markdown extraction, module validation, dedup,
	// confirm the sample actually fails compilation.
	seen := map[string]bool{}
	var filtered []Entry
	for _, e := range raw {
		code := fixer.Fix(e.Code).Code
		if !validModule(code) {
			continue
		}
		if _, design, _ := compiler.Frontend(code); design != nil {
			continue // fixer alone repaired it: not an interesting sample
		}
		stats.CompileFailing++
		key := strings.Join(strings.Fields(code), " ")
		if seen[key] {
			continue
		}
		seen[key] = true
		e.Code = code
		filtered = append(filtered, e)
	}
	stats.Filtered = len(filtered)

	// --- clustering: DBSCAN over Jaccard distance on token shingles,
	// then keep cluster representatives plus noise points.
	codes := make([]string, len(filtered))
	for i, e := range filtered {
		codes[i] = e.Code
	}
	shingles := cluster.InternShingles(codes, 4)
	dist := func(i, j int) float64 { return cluster.SetJaccardDistance(shingles[i], shingles[j]) }
	labels := cluster.DBSCAN(cluster.Neighbours(shingles, opts.Eps), opts.MinPts)
	maxLabel := -1
	for _, l := range labels {
		if l > maxLabel {
			maxLabel = l
		}
	}
	stats.Clusters = maxLabel + 1
	repIdx := cluster.Representatives(labels, dist)

	selected := make([]Entry, 0, len(repIdx))
	for _, i := range repIdx {
		selected = append(selected, filtered[i])
	}
	// Deterministic order, then trim or top up to the target size.
	sort.SliceStable(selected, func(i, j int) bool {
		if selected[i].ProblemID != selected[j].ProblemID {
			return selected[i].ProblemID < selected[j].ProblemID
		}
		return selected[i].Code < selected[j].Code
	})
	if len(selected) > opts.Target {
		// Spread the trim across the list to keep problem diversity.
		step := float64(len(selected)) / float64(opts.Target)
		var trimmed []Entry
		for i := 0; i < opts.Target; i++ {
			trimmed = append(trimmed, selected[int(float64(i)*step)])
		}
		selected = trimmed
	} else if len(selected) < opts.Target {
		// Top up from non-representative filtered samples.
		inSel := map[string]bool{}
		for _, e := range selected {
			inSel[e.Code] = true
		}
		for _, e := range filtered {
			if len(selected) >= opts.Target {
				break
			}
			if !inSel[e.Code] {
				selected = append(selected, e)
				inSel[e.Code] = true
			}
		}
	}
	stats.Final = len(selected)
	return selected, stats
}

func validModule(code string) bool {
	t := strings.TrimSpace(code)
	if !strings.Contains(t, "module") {
		return false
	}
	// Reject empty bodies: a header with no items.
	inner := t
	if idx := strings.Index(inner, ";"); idx >= 0 {
		inner = inner[idx+1:]
	}
	inner = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(inner), "endmodule"))
	return len(strings.Fields(inner)) >= 2
}
