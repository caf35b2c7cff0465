// Package core is the public face of the RTLFixer reproduction: it wires
// the rule-based pre-fixer, a compiler persona, the retrieval database,
// and the simulated-LLM agent into the feedback loop of the paper's
// Fig. 1. Downstream code (CLI, examples, benchmarks) talks to this
// package only.
package core

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/agent"
	"repro/internal/compiler"
	"repro/internal/diag"
	"repro/internal/llm"
	"repro/internal/memo"
	"repro/internal/rag"
	"repro/internal/trace"
)

// Mode selects the prompting scheme.
type Mode string

// Prompting modes.
const (
	// ModeOneShot is the baseline: a single feedback turn.
	ModeOneShot Mode = "one-shot"
	// ModeReAct is the full iterative Thought/Action/Observation loop.
	ModeReAct Mode = "react"
)

// Options configures a fixer instance.
type Options struct {
	// CompilerName selects the feedback persona: "simple", "iverilog",
	// or "quartus". Default "quartus".
	CompilerName string
	// PersonaName selects the simulated LLM: "gpt-3.5" or "gpt-4".
	// Default "gpt-3.5".
	PersonaName string
	// RAG enables the retrieval database (curated per compiler persona).
	RAG bool
	// Retriever overrides the retrieval strategy; nil uses exact-tag.
	Retriever rag.Retriever
	// Mode selects one-shot or ReAct; default ReAct.
	Mode Mode
	// MaxIterations bounds ReAct revisions; 0 means the paper's 10.
	MaxIterations int
	// Seed makes runs reproducible.
	Seed int64
	// Cache enables the sharded memoization layer (internal/memo): a
	// content-addressed compile cache in front of the persona and, with
	// RAG on, a precompiled retrieval index over the guidance database,
	// which caches its exact-tag results. Transparent: transcripts and
	// table output are byte-identical with the cache on or off. The
	// process-wide caches stay on with Cache off: the model's blind
	// inspection (llm.BlindHypotheses) and the sim oracle's caches.
	Cache bool
	// DisableAnalyzer turns off the semantic lint engine
	// (internal/analyze). With the analyzer on — the default — Lint
	// appends its findings to the persona diagnostics and the agent's
	// compile observations carry the rendered findings as extra model
	// feedback.
	DisableAnalyzer bool
}

// RTLFixer is a configured debugging agent.
type RTLFixer struct {
	opts     Options
	compiler compiler.Compiler
	persona  llm.Persona
	db       *rag.Database
	// retriever is the effective retrieval strategy: Options.Retriever,
	// possibly wrapped by the memo index when caching is on.
	retriever rag.Retriever
	// compileCache and index are non-nil only when Options.Cache is set.
	compileCache *memo.CompileCache
	index        *memo.RetrievalIndex
}

// New validates options and builds a fixer.
func New(opts Options) (*RTLFixer, error) {
	if opts.CompilerName == "" {
		opts.CompilerName = "quartus"
	}
	if opts.PersonaName == "" {
		opts.PersonaName = "gpt-3.5"
	}
	if opts.Mode == "" {
		opts.Mode = ModeReAct
	}
	comp, ok := compiler.ByName(opts.CompilerName)
	if !ok {
		return nil, fmt.Errorf("core: unknown compiler persona %q", opts.CompilerName)
	}
	persona, ok := llm.PersonaByName(opts.PersonaName)
	if !ok {
		return nil, fmt.Errorf("core: unknown LLM persona %q", opts.PersonaName)
	}
	f := &RTLFixer{opts: opts, compiler: comp, persona: persona, retriever: opts.Retriever}
	if opts.Cache {
		f.compileCache = memo.NewCompileCache(0)
		f.compiler = f.compileCache.Cached(comp)
	}
	if opts.RAG {
		f.db = rag.ForCompiler(comp.Name())
		if opts.Cache && memo.Indexable(opts.Retriever) {
			// Precompile the retrieval index once; every worker then
			// shares the read-only inverted index and shingle sets.
			// Custom strategies skip the build — the index could not
			// serve them, so it would be constructed and never consulted.
			f.index = memo.NewRetrievalIndex(f.db)
			f.retriever = f.index.Wrap(opts.Retriever)
		}
	}
	return f, nil
}

// CacheStats snapshots the memoization-layer counters (zero when
// Options.Cache is off).
func (f *RTLFixer) CacheStats() memo.Stats {
	var s memo.Stats
	if f.compileCache != nil {
		s = s.Add(f.compileCache.Stats())
	}
	if f.index != nil {
		s = s.Add(f.index.Stats())
	}
	return s
}

// Compiler exposes the configured persona (for examples and tests).
func (f *RTLFixer) Compiler() compiler.Compiler { return f.compiler }

// Options returns the validated configuration this fixer was built with
// (defaults filled in), so callers that pool fixers per configuration can
// label them.
func (f *RTLFixer) Options() Options { return f.opts }

// Lint compiles the source through the configured persona without running
// the agent — the cheap diagnostic path (served from the compile cache
// when Options.Cache is on). The returned Result carries the persona log
// and the structured diagnostics; with the analyzer on, the result's
// semantic-lint findings are appended to a copy of the diagnostics (the
// cached slice is never mutated).
func (f *RTLFixer) Lint(filename, code string) compiler.Result {
	res := f.compiler.Compile(filename, code)
	if f.opts.DisableAnalyzer {
		return res
	}
	findings := res.Findings()
	if len(findings) == 0 {
		return res
	}
	diags := make(diag.List, 0, len(res.Diags)+len(findings))
	diags = append(diags, res.Diags...)
	diags = append(diags, findings...)
	res.Diags = diags
	return res
}

// rngPool recycles the simulated model's random generators across fixes:
// an llm.NewSource is about 5 KB (607 state words and a 10-word touched
// set), and every fix needs one. Reseeding it is O(1), and its stream is
// a fresh rand.NewSource's. A run's generator returns to the pool when
// FixTraced returns; the transcript keeps no reference to the model.
var rngPool = sync.Pool{New: func() any { return rand.New(llm.NewSource(0)) }}

// Database returns the retrieval database, nil when RAG is off.
func (f *RTLFixer) Database() *rag.Database { return f.db }

// Fix runs the configured debugging loop on one erroneous source file.
// sampleSeed distinguishes problem instances: the simulated model's
// capability rolls are deterministic per (sample, error category), so the
// same instance behaves consistently across retries, as a real model's
// systematic weaknesses do.
func (f *RTLFixer) Fix(filename, code string, sampleSeed int64) *agent.Transcript {
	return f.FixTraced(filename, code, sampleSeed, nil)
}

// FixTraced is Fix with a parent trace span: the loop's stage children
// (iteration, compile, analyze, rag, llm) attach under sp. A nil sp is
// exactly Fix — the no-op span chain adds no allocations — and the
// transcript is byte-identical either way.
func (f *RTLFixer) FixTraced(filename, code string, sampleSeed int64, sp *trace.Span) *agent.Transcript {
	rng := rngPool.Get().(*rand.Rand)
	defer rngPool.Put(rng)
	rng.Seed(f.opts.Seed ^ sampleSeed) // the stream of a fresh rand.NewSource
	cfg := agent.Config{
		Compiler:        f.compiler,
		Model:           llm.NewModelRand(f.persona, rng),
		DB:              f.db,
		Retriever:       f.retriever,
		MaxIterations:   f.opts.MaxIterations,
		Filename:        filename,
		SampleSeed:      sampleSeed,
		DisableAnalyzer: f.opts.DisableAnalyzer,
		Span:            sp,
	}
	if f.opts.Mode == ModeOneShot {
		return agent.RunOneShot(cfg, code)
	}
	return agent.RunReAct(cfg, code)
}
