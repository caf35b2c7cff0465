// Package agent implements the autonomous debugging loop of RTLFixer: the
// ReAct prompting scheme (interleaved Thought / Action / Observation
// steps, §3.2) and the One-shot baseline it is compared against (single
// feedback turn, no iteration).
//
// The agent's tools are the ones Fig. 2b lists:
//
//	(1) Compiler[code] — compile, observe the log
//	(2) RAG[logs]      — retrieve expert guidance for the log
//	(3) Finish[answer] — return the final code
//
// plus the implicit "revise" act in which the LLM rewrites the code.
package agent

import (
	"fmt"
	"strings"

	"repro/internal/analyze"
	"repro/internal/compiler"
	"repro/internal/fault"
	"repro/internal/fixer"
	"repro/internal/llm"
	"repro/internal/rag"
	"repro/internal/trace"
)

// DefaultMaxIterations is the paper's ReAct budget: "we restrict the LLM
// to a maximum of 10 iterations of Thought-Action-Observation".
const DefaultMaxIterations = 10

// StepKind labels a transcript step.
type StepKind string

// Step kinds.
const (
	StepThought     StepKind = "Thought"
	StepAction      StepKind = "Action"
	StepObservation StepKind = "Observation"
)

// Step is one transcript entry.
type Step struct {
	Kind StepKind
	// Tool names the action's tool (Compiler, RAG, Revise, Finish) when
	// Kind is StepAction.
	Tool    string
	Content string
}

// Transcript records one debugging session.
type Transcript struct {
	Steps []Step
	// Iterations counts code revisions attempted.
	Iterations int
	// Success is true when the final code compiles.
	Success bool
	// FinalCode is the last code version (fixed or not).
	FinalCode string
	// FixerRules lists rule names the deterministic pre-fixer applied.
	FixerRules []string
	// LintFindings counts semantic-lint findings surfaced to the model
	// across all iterations (0 when the analyzer is disabled).
	LintFindings int
}

// transcriptSteps is the initial capacity of Transcript.Steps. Over the
// gpt-3.5 cells of Table 1 (two seeds, 4240 runs), 84% of transcripts
// hold 6–9 steps, so most runs never grow the slice.
const transcriptSteps = 10

// newTranscript returns an empty transcript with room for transcriptSteps
// steps.
func newTranscript() *Transcript {
	return &Transcript{Steps: make([]Step, 0, transcriptSteps)}
}

func (t *Transcript) add(kind StepKind, tool, content string) {
	t.Steps = append(t.Steps, Step{Kind: kind, Tool: tool, Content: content})
}

// Render formats the transcript in the paper's Fig. 2c style.
func (t *Transcript) Render() string {
	var b strings.Builder
	thoughtN, actionN, obsN := 0, 0, 0
	for _, s := range t.Steps {
		switch s.Kind {
		case StepThought:
			thoughtN++
			fmt.Fprintf(&b, "Thought %d:\n%s\n\n", thoughtN, s.Content)
		case StepAction:
			actionN++
			fmt.Fprintf(&b, "Action %d: %s\n%s\n\n", actionN, s.Tool, s.Content)
		case StepObservation:
			obsN++
			fmt.Fprintf(&b, "Observation %d:\n%s\n\n", obsN, s.Content)
		}
	}
	fmt.Fprintf(&b, "Result: success=%v after %d iteration(s)\n", t.Success, t.Iterations)
	return b.String()
}

// Config wires the agent's collaborators.
type Config struct {
	// Compiler is the feedback persona.
	Compiler compiler.Compiler
	// Model is the simulated LLM.
	Model *llm.Model
	// DB enables RAG when non-nil.
	DB *rag.Database
	// Retriever selects guidance; nil defaults to the paper's exact-tag
	// retriever.
	Retriever rag.Retriever
	// MaxIterations bounds ReAct; 0 means DefaultMaxIterations.
	MaxIterations int
	// Filename appears in compiler logs.
	Filename string
	// SampleSeed identifies the problem instance for the model's
	// deterministic capability rolls.
	SampleSeed int64
	// DisableAnalyzer turns off the semantic lint engine whose findings
	// are appended to every compile observation the model sees. The zero
	// value keeps it on.
	DisableAnalyzer bool
	// Span, when non-nil, is the parent trace span under which the loop
	// records its stage children (iteration, compile, analyze, rag,
	// llm). Nil disables tracing: the no-op span chain keeps the loop
	// allocation-free, and transcripts are identical either way.
	Span *trace.Span
}

func (c Config) retriever() rag.Retriever {
	if c.Retriever != nil {
		return c.Retriever
	}
	return rag.ExactTag{}
}

func (c Config) maxIters() int {
	if c.MaxIterations > 0 {
		return c.MaxIterations
	}
	return DefaultMaxIterations
}

func (c Config) filename() string {
	if c.Filename != "" {
		return c.Filename
	}
	return "main.v"
}

// hitCompiler is the optional extension the memo layer's cached
// compiler implements: one cache lookup that also reports whether it was
// a hit. The tracer uses it to attribute cache hits on compile spans
// without widening the compiler.Compiler interface; the result and the
// cache statistics are exactly those of Compile.
type hitCompiler interface {
	CompileReportingHit(filename, src string) (compiler.Result, bool)
}

// compileStep compiles cur under a "compile" child span of parent,
// annotating the outcome and — when the compiler is the memo layer's
// cached wrapper — whether the result was served from cache. With a nil
// parent this is exactly cfg.Compiler.Compile: no spans, no allocations.
func compileStep(cfg Config, parent *trace.Span, cur string) compiler.Result {
	fault.Delay(fault.CompileStall)
	sp := parent.Child("compile")
	if sp == nil {
		return cfg.Compiler.Compile(cfg.filename(), cur)
	}
	var res compiler.Result
	if hc, ok := cfg.Compiler.(hitCompiler); ok {
		var hit bool
		res, hit = hc.CompileReportingHit(cfg.filename(), cur)
		sp.SetBool("cache_hit", hit)
	} else {
		res = cfg.Compiler.Compile(cfg.filename(), cur)
	}
	sp.SetBool("ok", res.Ok)
	sp.End()
	return res
}

// preclean runs the deterministic rule-based fixer, which the paper
// applies to every LLM-generated sample before compilation.
func preclean(code string, t *Transcript) string {
	res := fixer.Fix(code)
	t.FixerRules = append(t.FixerRules, res.Applied...)
	return res.Code
}

// observe builds the observation/feedback text for one compile: the
// persona log, plus (analyzer on) the semantic-lint findings for the
// candidate, read under an "analyze" child span of parent. The findings
// come from the compile result, which lints the design its own frontend
// pass elaborated: nothing is re-parsed, and a result from the compile
// cache carries findings already computed. The lint lines ride along in
// the prompt without being mistaken for compile errors — their format
// deliberately matches none of the compiler-log dialects the model's log
// analysis parses, so the error taxonomy, retrieval, and repair strategy
// selection are byte-identical with the analyzer on or off.
func observe(cfg Config, parent *trace.Span, res compiler.Result, t *Transcript) string {
	if cfg.DisableAnalyzer {
		return res.Log
	}
	// Analyzer failure is never fatal (degradation ladder): a panicking
	// rule just means this observation carries no lint lines.
	as := parent.Child("analyze")
	findings, err := analyze.Safe(res.Findings)
	as.End()
	if err != nil || len(findings) == 0 {
		return res.Log
	}
	t.LintFindings += len(findings)
	return strings.TrimRight(res.Log, "\n") + "\n" + analyze.RenderText(cfg.filename(), findings)
}

// llmStep consults the model once under a "llm" child span of parent.
// The model is an in-process function that cannot fail, so there is
// nothing to retry: with a nil parent this is exactly cfg.Model.Repair.
func llmStep(cfg Config, parent *trace.Span, req llm.RepairRequest) llm.RepairResult {
	ls := parent.Child("llm")
	rep := cfg.Model.Repair(req)
	ls.End()
	return rep
}

// RunOneShot is the baseline: one compile for feedback, one revision, one
// verifying compile. No reasoning steps, no iteration.
func RunOneShot(cfg Config, code string) *Transcript {
	t := newTranscript()
	cur := preclean(code, t)

	t.add(StepAction, "Compiler", "submitting the candidate code")
	res := compileStep(cfg, cfg.Span, cur)
	if res.Ok {
		t.add(StepObservation, "", res.Log)
		t.Success = true
		t.FinalCode = cur
		t.add(StepAction, "Finish", "the code already compiles")
		return t
	}
	obs := observe(cfg, cfg.Span, res, t)
	t.add(StepObservation, "", obs)

	var guidance []rag.Entry
	if cfg.DB != nil && cfg.Compiler.InfoScore() > 0 {
		// Retrieval keys on the raw compiler log: lint lines carry no
		// error tags and would only dilute fuzzy matching.
		rs := cfg.Span.Child("rag")
		guidance = cfg.retriever().Retrieve(cfg.DB, res.Log, 4)
		rs.SetInt("entries", int64(len(guidance)))
		rs.End()
		t.add(StepAction, "RAG", "retrieving guidance for the compiler log")
		t.add(StepObservation, "", rag.Render(guidance))
	}

	rep := llmStep(cfg, cfg.Span, llm.RepairRequest{
		Code:       cur,
		Feedback:   obs,
		Guidance:   guidance,
		Thought:    false,
		SampleSeed: cfg.SampleSeed,
		Iteration:  0,
	})
	t.Iterations = 1
	cur = preclean(rep.Code, t)
	t.add(StepAction, "Revise", strings.Join(rep.Notes, "; "))

	final := compileStep(cfg, cfg.Span, cur)
	t.add(StepAction, "Compiler", "submitting the revised code")
	t.add(StepObservation, "", final.Log)
	t.Success = final.Ok
	t.FinalCode = cur
	t.add(StepAction, "Finish", "returning the revised code")
	return t
}

// RunReAct is the full RTLFixer loop: Thought → Action → Observation,
// iterating revisions until the compiler passes or the budget runs out.
func RunReAct(cfg Config, code string) *Transcript {
	t := newTranscript()
	cur := preclean(code, t)

	res := compileStep(cfg, cfg.Span, cur)
	t.add(StepAction, "Compiler", "submitting the candidate code")
	if res.Ok {
		t.add(StepObservation, "", res.Log)
		t.Success = true
		t.FinalCode = cur
		t.add(StepAction, "Finish", "the code already compiles")
		return t
	}
	obs := observe(cfg, cfg.Span, res, t)
	t.add(StepObservation, "", obs)

	for iter := 1; iter <= cfg.maxIters(); iter++ {
		it := cfg.Span.Child("iteration")
		it.SetInt("n", int64(iter))
		hyps := llm.AnalyzeLog(res.Log)
		t.add(StepThought, "", llm.Thought(res.Log, hyps))

		var guidance []rag.Entry
		if cfg.DB != nil && cfg.Compiler.InfoScore() > 0 {
			// Raw log only: lint lines carry no retrievable error tags.
			rs := it.Child("rag")
			guidance = cfg.retriever().Retrieve(cfg.DB, res.Log, 4)
			rs.SetInt("entries", int64(len(guidance)))
			rs.End()
			t.add(StepAction, "RAG", firstLogLine(res.Log))
			t.add(StepObservation, "", rag.Render(guidance))
		}

		rep := llmStep(cfg, it, llm.RepairRequest{
			Code:       cur,
			Feedback:   obs,
			Guidance:   guidance,
			Thought:    true,
			SampleSeed: cfg.SampleSeed,
			Iteration:  iter,
		})
		t.Iterations = iter
		cur = preclean(rep.Code, t)
		t.add(StepAction, "Revise", strings.Join(rep.Notes, "; "))

		res = compileStep(cfg, it, cur)
		t.add(StepAction, "Compiler", "submitting the revised code")
		if res.Ok {
			t.add(StepObservation, "", res.Log)
			t.Success = true
			t.FinalCode = cur
			t.add(StepAction, "Finish", "the revised code compiles cleanly")
			it.End()
			return t
		}
		obs = observe(cfg, it, res, t)
		t.add(StepObservation, "", obs)
		it.End()
	}
	t.FinalCode = cur
	t.add(StepAction, "Finish", "iteration budget exhausted; returning the best attempt")
	return t
}

// firstLogLine returns the log's first non-blank line, trimmed, or the
// whole log when every line is blank.
func firstLogLine(log string) string {
	for rest := log; ; {
		line, tail, more := strings.Cut(rest, "\n")
		if line = strings.TrimSpace(line); line != "" {
			return line
		}
		if !more {
			return log
		}
		rest = tail
	}
}
