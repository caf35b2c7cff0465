// Package bench regenerates every table and figure in the paper's
// evaluation section (§4): Table 1 (fix rate ablation), Table 2 (pass@k
// before/after fixing), Table 3 (RTLLM generalization), Figure 4 (outcome
// breakdown rings), and Figure 7 (ReAct iteration histogram).
package bench

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/agent"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/curate"
	"repro/internal/llm"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// tracer is the package-wide trace collector (nil = tracing off). Set
// once by SetTracer before any experiment runs.
var tracer *trace.Collector

// SetTracer installs a trace collector on every bench pipeline run, so
// each agent job records a stage-level span tree (cmd/benchmark's
// -stages breakdown). Pass nil to disable — the default, which keeps
// experiment hot paths allocation-free and table output untouched.
func SetTracer(c *trace.Collector) { tracer = c }

// Table1Config parameterizes the fix-rate experiment.
type Table1Config struct {
	// Seed drives dataset curation and all model randomness.
	Seed int64
	// Repeats is the paper's n=10: each sample is attempted this many
	// times and the fix rate is the expectation of c/n.
	Repeats int
	// MaxEntries truncates the curated dataset for quick runs (0 = all).
	MaxEntries int
	// Entries overrides the curated dataset (nil = build it).
	Entries []curate.Entry
	// Workers sizes the evaluation pool; <= 0 means runtime.NumCPU().
	// Results are identical for any worker count.
	Workers int
	// Cache enables the sharded memoization layer (internal/memo).
	// Table output is byte-identical with it on or off.
	Cache bool
}

func (c Table1Config) withDefaults() Table1Config {
	if c.Repeats == 0 {
		c.Repeats = 10
	}
	return c
}

// Table1Cell is one cell of Table 1.
type Table1Cell struct {
	Prompt   core.Mode
	RAG      bool
	Compiler string
	Persona  string
	// FixRate is NaN for undefined combinations (RAG needs a compiler
	// log, so Simple+RAG is "-" in the paper too).
	FixRate float64
}

// Defined reports whether the combination is meaningful.
func (c Table1Cell) Defined() bool { return !math.IsNaN(c.FixRate) }

// Table1Result holds the full grid plus the iteration histogram collected
// from the ReAct + RAG + Quartus runs (Figure 7's data) and the curation
// statistics.
type Table1Result struct {
	Cells []Table1Cell
	// IterationHist[i] counts samples whose successful fix needed i
	// revisions (index 0 unused; 1..10).
	IterationHist [agent.DefaultMaxIterations + 1]int
	DatasetSize   int
	CurationStats curate.Stats
}

// Cell finds a cell in the grid.
func (r *Table1Result) Cell(prompt core.Mode, ragOn bool, comp, persona string) (Table1Cell, bool) {
	for _, c := range r.Cells {
		if c.Prompt == prompt && c.RAG == ragOn && c.Compiler == comp && c.Persona == persona {
			return c, true
		}
	}
	return Table1Cell{}, false
}

// RunTable1 reproduces Table 1: fix rate for One-shot vs ReAct, with and
// without RAG, across the three feedback personas, for gpt-3.5, plus the
// gpt-4 ablation column on Quartus.
func RunTable1(cfg Table1Config) *Table1Result {
	cfg = cfg.withDefaults()
	entries := cfg.Entries
	var stats curate.Stats
	if entries == nil {
		entries, stats = curate.Build(curate.Options{Seed: cfg.Seed})
	}
	if cfg.MaxEntries > 0 && len(entries) > cfg.MaxEntries {
		entries = entries[:cfg.MaxEntries]
	}
	res := &Table1Result{DatasetSize: len(entries), CurationStats: stats}

	type combo struct {
		prompt  core.Mode
		rag     bool
		comp    string
		persona string
	}
	var combos []combo
	for _, prompt := range []core.Mode{core.ModeOneShot, core.ModeReAct} {
		for _, rag := range []bool{false, true} {
			for _, comp := range []string{"simple", "iverilog", "quartus"} {
				combos = append(combos, combo{prompt, rag, comp, "gpt-3.5"})
			}
			combos = append(combos, combo{prompt, rag, "quartus", "gpt-4"})
		}
	}

	for _, cb := range combos {
		cell := Table1Cell{Prompt: cb.prompt, RAG: cb.rag, Persona: cb.persona}
		comp, _ := compiler.ByName(cb.comp)
		cell.Compiler = comp.Name()
		if cb.rag && comp.InfoScore() == 0 {
			cell.FixRate = math.NaN() // the paper's "-": RAG needs a log
			res.Cells = append(res.Cells, cell)
			continue
		}
		fixer, err := core.New(core.Options{
			CompilerName: cb.comp,
			PersonaName:  cb.persona,
			RAG:          cb.rag,
			Mode:         cb.prompt,
			Seed:         cfg.Seed,
			Cache:        cfg.Cache,
		})
		if err != nil {
			panic(err) // combos are all valid by construction
		}
		collectHist := cb.prompt == core.ModeReAct && cb.rag &&
			cb.comp == "quartus" && cb.persona == "gpt-3.5"

		sum := runFixRateJobs(fixer, entries, cfg.Repeats, cfg.Workers)
		if collectHist {
			res.IterationHist = sum.IterationHist
		}
		cell.FixRate = sum.FixRate
		res.Cells = append(res.Cells, cell)
	}
	return res
}

// runFixRateJobs fans all (entry, repeat) attempts for one fixer
// configuration out over the worker pool and aggregates them; shared by
// Table 1 and the ablations. Each entry is one job group, so the
// summary's FixRate is exactly metrics.FixRate over entries.
func runFixRateJobs(f *core.RTLFixer, entries []curate.Entry, repeats, workers int) *pipeline.Summary {
	jobs := make([]pipeline.Job, 0, len(entries)*repeats)
	for i, e := range entries {
		for rep := 0; rep < repeats; rep++ {
			jobs = append(jobs, pipeline.Job{
				Group:      i,
				Filename:   "main.v",
				Code:       e.Code,
				SampleSeed: e.SampleSeed + int64(rep)*7919,
			})
		}
	}
	results, err := pipeline.Run(context.Background(), pipeline.Config{Workers: workers, Tracer: tracer}, jobs, pipeline.FixWith(f))
	if err != nil {
		panic(err) // background context: cannot be canceled
	}
	sum := pipeline.Summarize(results)
	sum.Cache = f.CacheStats()
	return sum
}

// Render formats the grid in the paper's Table 1 layout.
func (r *Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Fix rate on VerilogEval-syntax (%d samples)\n", r.DatasetSize)
	fmt.Fprintf(&b, "%-10s %-5s %-8s %-10s %-8s %-8s\n", "Prompt", "RAG", "Simple", "iverilog", "Quartus", "GPT-4")
	for _, prompt := range []core.Mode{core.ModeOneShot, core.ModeReAct} {
		for _, rag := range []bool{false, true} {
			ragLabel := "w/o"
			if rag {
				ragLabel = "w/"
			}
			row := []string{}
			for _, comp := range []string{"Simple", "iverilog", "Quartus"} {
				c, ok := r.Cell(prompt, rag, comp, "gpt-3.5")
				row = append(row, fmtRate(c, ok))
			}
			g4, ok := r.Cell(prompt, rag, "Quartus", "gpt-4")
			row = append(row, fmtRate(g4, ok))
			name := "One-shot"
			if prompt == core.ModeReAct {
				name = "ReAct"
			}
			fmt.Fprintf(&b, "%-10s %-5s %-8s %-10s %-8s %-8s\n", name, ragLabel, row[0], row[1], row[2], row[3])
		}
	}
	return b.String()
}

func fmtRate(c Table1Cell, ok bool) string {
	if !ok || !c.Defined() {
		return "-"
	}
	return fmt.Sprintf("%.3f", c.FixRate)
}

// RenderFigure7 draws the iteration histogram (paper Fig. 7) as an ASCII
// log-scale bar chart.
func (r *Table1Result) RenderFigure7() string {
	var b strings.Builder
	b.WriteString("Figure 7: Distribution of iterations required by ReAct to fix syntax errors\n")
	b.WriteString("(ReAct + RAG + Quartus runs)\n")
	for i := 1; i < len(r.IterationHist); i++ {
		n := r.IterationHist[i]
		bar := ""
		if n > 0 {
			barLen := int(math.Round(8 * math.Log10(float64(n)+1)))
			bar = strings.Repeat("#", barLen)
		}
		fmt.Fprintf(&b, "%2d iterations | %-40s %d\n", i, bar, n)
	}
	return b.String()
}

// Persona shortcut used across bench files.
var _ = llm.GPT35
