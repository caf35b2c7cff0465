// Package compiler wraps the Verilog frontend (parse + elaborate) behind
// the three feedback personas the paper's ablation contrasts:
//
//   - Simple   — pass/fail only; the log is the fixed instruction
//     "Correct the syntax error in the code." (§4.3.1 "Simple")
//   - IVerilog — terse open-source-style logs ("main.v:5: error: ..."),
//     with the documented failure mode of degrading to "I give up." on
//     confusing input (§4.3.1, Fig. 5 top)
//   - Quartus  — verbose commercial-style logs with error numbers,
//     explanations and fix suggestions (§4.3.1, Fig. 5 bottom)
//
// All personas share one frontend (FrontendResult); only the log
// rendering (each persona's Render) and the information content differ. InfoScore quantifies that difference for the
// simulated LLM's localization model.
package compiler

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/analyze"
	"repro/internal/diag"
	"repro/internal/sema"
	"repro/internal/verilog"
)

// Result is the outcome of one compilation.
type Result struct {
	// Ok is true when the source parsed and elaborated with no errors.
	Ok bool
	// Log is the persona-formatted compiler output the agent reads.
	Log string
	// Diags is the structured ground truth behind the log. The agent
	// never consumes it directly; tests, the oracle, and the simulated
	// LLM's capability model do.
	Diags diag.List
	// File is the parsed AST (always present, possibly partial).
	File *verilog.SourceFile
	// Design is the elaborated design, non-nil only when Ok.
	Design *sema.Design

	// lint holds the analyzer's input and its findings, shared by every
	// copy of this Result; nil when the source had no analyzable design.
	lint *lintSlot
}

// Findings returns the semantic-lint findings (every internal/analyze
// rule at its default severity) for the compiled source: exactly what
// analyze.Source would report for it. They are computed on first call
// from the design this compile already elaborated — kept for the
// analyzer even when elaboration errors leave Design nil — and shared by
// every copy of the Result, so a Result served from the compile cache
// never re-runs the analyzer. Sources with parse errors have none. Safe
// for concurrent use; callers must not modify the returned list.
func (r Result) Findings() diag.List {
	if r.lint == nil {
		return nil
	}
	return r.lint.findings()
}

// lintSlot is a Result's analyzer input plus its once-computed findings.
// Unlike sync.Once, a run that panics leaves the slot unfilled, so the
// next caller runs the analyzer again, as a fresh analyze.Source call
// would.
type lintSlot struct {
	file   *verilog.SourceFile
	design *sema.Design

	done atomic.Bool
	mu   sync.Mutex
	list diag.List
}

func (s *lintSlot) findings() diag.List {
	if s.done.Load() {
		return s.list
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.done.Load() {
		s.list = analyze.Run(s.file, s.design, analyze.Options{})
		s.done.Store(true)
	}
	return s.list
}

// FrontendResult is the one parse + elaborate pass behind every persona.
// It fills the persona-independent part of a Result: the diagnostics,
// the AST, the design under Frontend's masking rule, and the analyzer's
// input, whose design survives elaboration errors. The log is empty; a
// persona's Render adds it, so Compile(filename, src) is
// Render(filename, FrontendResult(src)). Every Result rendered from one
// FrontendResult shares its AST, design, diagnostics and findings, so
// callers must treat them as read-only.
func FrontendResult(src string) Result {
	file, design, diags := sema.ParseAndElaborate(src)
	res := Result{Diags: diags, File: file}
	if design == nil {
		return res
	}
	res.lint = &lintSlot{file: file, design: design}
	if !diags.HasErrors() {
		res.Design = design
		res.Ok = true
	}
	return res
}

// Compiler is one feedback persona.
type Compiler interface {
	// Name returns the persona name used in tables ("Simple",
	// "iverilog", "Quartus").
	Name() string
	// Compile runs the frontend on src and renders the persona's log.
	// filename appears in the log the way real tools echo it.
	Compile(filename, src string) Result
	// InfoScore is the information content of this persona's logs in
	// [0,1]: 0 = no information beyond pass/fail, 1 = precise location,
	// cause, and suggestion for every error. The simulated LLM's
	// localization model consumes it.
	InfoScore() float64
}

// RenderStep returns c's Render step when c is one of the built-in
// personas, whose Compile(filename, src) is exactly
// Render(filename, FrontendResult(src)); a caller holding a
// FrontendResult can then skip the parse. Any other Compiler — a wrapper
// that embeds a persona included — keeps its own Compile, and the step
// is nil.
func RenderStep(c Compiler) func(filename string, fe Result) Result {
	switch p := c.(type) {
	case Simple:
		return p.Render
	case IVerilog:
		return p.Render
	case Quartus:
		return p.Render
	}
	return nil
}

// Frontend runs parse + elaborate with the real-compiler masking rule:
// semantic analysis only runs when parsing succeeded, so parse errors hide
// the elaboration errors behind them (the cascade that makes iterative
// fixing necessary). The design is nil unless the source compiles with no
// errors.
//
// Frontend is the uncached reference: every call parses src afresh and
// touches no cache, so checks that must stay independent of the
// memoization layer (the benchmark's verification, curation's
// elaboration filter, vlint, the bench tables' candidate gates) call it
// rather than a cached path.
func Frontend(src string) (*verilog.SourceFile, *sema.Design, diag.List) {
	file, design, diags := sema.ParseAndElaborate(src)
	if diags.HasErrors() {
		design = nil
	}
	return file, design, diags
}

// ---------- Simple ----------

// Simple is the no-feedback persona: it compiles (the loop must know when
// to stop) but reveals nothing about the errors.
type Simple struct{}

// Name implements Compiler.
func (Simple) Name() string { return "Simple" }

// InfoScore implements Compiler.
func (Simple) InfoScore() float64 { return 0.0 }

// Compile implements Compiler.
func (p Simple) Compile(filename, src string) Result {
	return p.Render(filename, FrontendResult(src))
}

// Render returns the frontend result res with the persona's log for
// filename added.
func (Simple) Render(filename string, res Result) Result {
	if res.Ok {
		res.Log = "Compilation successful."
	} else {
		res.Log = "Correct the syntax error in the code."
	}
	return res
}

// ---------- iverilog ----------

// IVerilog renders terse open-source-style logs.
type IVerilog struct{}

// Name implements Compiler.
func (IVerilog) Name() string { return "iverilog" }

// InfoScore implements Compiler.
func (IVerilog) InfoScore() float64 { return 0.55 }

// giveUpThreshold is how many parse errors it takes before the persona
// abandons detailed reporting, reproducing iverilog's "I give up." mode.
const giveUpThreshold = 4

// Compile implements Compiler.
func (p IVerilog) Compile(filename, src string) Result {
	return p.Render(filename, FrontendResult(src))
}

// Render returns the frontend result res with the persona's log for
// filename added.
func (IVerilog) Render(filename string, res Result) Result {
	if res.Ok {
		// Real iverilog is silent on success, but an empty log would leave
		// the agent with an empty Observation step; echo the filename the
		// way the error lines do.
		res.Log = fmt.Sprintf("%s: compiled successfully.\n", filename)
		return res
	}
	var b strings.Builder
	errs := res.Diags.Errors()
	syntaxErrs := 0
	for _, d := range errs {
		if isParseCategory(d.Category) {
			syntaxErrs++
		}
	}
	if syntaxErrs >= giveUpThreshold {
		// The documented degradation: many syntax errors collapse into an
		// uninformative log.
		for i := 0; i < syntaxErrs && i < 2; i++ {
			fmt.Fprintf(&b, "%s:%d: syntax error\n", filename, errs[i].Pos.Line)
		}
		b.WriteString("I give up.\n")
		res.Log = b.String()
		return res
	}
	for _, d := range errs {
		b.WriteString(iverilogLine(filename, d))
	}
	fmt.Fprintf(&b, "%d error(s) during elaboration.\n", len(errs))
	res.Log = b.String()
	return res
}

func isParseCategory(c diag.Category) bool {
	switch c {
	case diag.CatUnexpectedToken, diag.CatMissingSemicolon,
		diag.CatUnmatchedBeginEnd, diag.CatMissingEndmodule,
		diag.CatCStyleSyntax, diag.CatMisplacedDirective,
		diag.CatKeywordAsIdent, diag.CatMalformedLiteral,
		diag.CatSensitivityList, diag.CatModuleStructure,
		diag.CatBadConcat:
		return true
	}
	return false
}

// iverilogLine renders one diagnostic in iverilog's laconic dialect. The
// phrasings mirror the logs the paper quotes in Figs. 2 and 5.
func iverilogLine(filename string, d diag.Diagnostic) string {
	loc := fmt.Sprintf("%s:%d: ", filename, d.Pos.Line)
	switch d.Category {
	case diag.CatUndeclaredIdent:
		return loc + fmt.Sprintf("error: Unable to bind wire/reg/memory `%s' in `top_module'\n", d.Symbol)
	case diag.CatInvalidLValue:
		return loc + fmt.Sprintf("error: %s is not a valid l-value in top_module.\n", d.Symbol)
	case diag.CatIndexOutOfRange:
		return loc + fmt.Sprintf("error: Index %s[...] is out of range.\n", d.Symbol)
	case diag.CatAssignToReg:
		return loc + fmt.Sprintf("error: reg %s; cannot be driven by primitives or continuous assignment.\n", d.Symbol)
	case diag.CatMissingSemicolon, diag.CatUnexpectedToken, diag.CatCStyleSyntax,
		diag.CatBadConcat, diag.CatKeywordAsIdent:
		return loc + "syntax error\n"
	case diag.CatUnmatchedBeginEnd, diag.CatMissingEndmodule:
		return loc + "syntax error\n" + loc + "error: Errors in statement block.\n"
	case diag.CatMisplacedDirective:
		return loc + "error: macro names cannot be directive keywords\n"
	case diag.CatMalformedLiteral:
		return loc + "error: Malformed statement\n"
	case diag.CatSensitivityList:
		return loc + "error: Error in event expression.\n"
	case diag.CatDuplicateDecl:
		return loc + fmt.Sprintf("error: `%s' has already been declared in this scope.\n", d.Symbol)
	case diag.CatPortMismatch:
		return loc + fmt.Sprintf("error: Port %s is not defined in module.\n", d.Symbol)
	case diag.CatNonConstantExpr:
		return loc + "error: Dimensions must be constant.\n"
	case diag.CatModuleStructure:
		return loc + "syntax error\n"
	default:
		return loc + fmt.Sprintf("error: %s\n", d.Message)
	}
}

// ---------- Quartus ----------

// Quartus renders verbose commercial-style logs with error numbers and
// suggestions.
type Quartus struct{}

// Name implements Compiler.
func (Quartus) Name() string { return "Quartus" }

// InfoScore implements Compiler.
func (Quartus) InfoScore() float64 { return 0.9 }

// quartusCode maps categories to the stable error numbers the RAG database
// keys on. 10161 (undeclared object) and 10232 (index out of range) are the
// codes the paper itself quotes; the rest follow the same numbering style.
func quartusCode(c diag.Category) int {
	switch c {
	case diag.CatUndeclaredIdent:
		return 10161
	case diag.CatIndexOutOfRange:
		return 10232
	case diag.CatInvalidLValue:
		return 10137
	case diag.CatAssignToReg:
		return 10219
	case diag.CatMissingSemicolon, diag.CatUnexpectedToken, diag.CatModuleStructure:
		return 10170
	case diag.CatUnmatchedBeginEnd, diag.CatMissingEndmodule:
		return 10171
	case diag.CatCStyleSyntax:
		return 10663
	case diag.CatMisplacedDirective:
		return 10190
	case diag.CatDuplicateDecl:
		return 10028
	case diag.CatPortMismatch:
		return 10112
	case diag.CatNonConstantExpr:
		return 10110
	case diag.CatKeywordAsIdent:
		return 10114
	case diag.CatMalformedLiteral:
		return 10120
	case diag.CatSensitivityList:
		return 10122
	case diag.CatBadConcat:
		return 10125
	case diag.CatWidthMismatch:
		return 10230
	case diag.CatInferredLatch:
		return 10240
	case diag.CatIncompleteSensitivity:
		return 10235
	case diag.CatAssignStyle:
		return 10237
	case diag.CatCombLoop:
		return 10244
	case diag.CatReadBeforeWrite:
		return 10030
	case diag.CatUnusedSignal:
		return 12241
	case diag.CatAliasHazard:
		return 10268
	case diag.CatResourceLimit:
		return 10252
	default:
		return 10170
	}
}

// Compile implements Compiler.
func (p Quartus) Compile(filename, src string) Result {
	return p.Render(filename, FrontendResult(src))
}

// Render returns the frontend result res with the persona's log for
// filename added.
func (Quartus) Render(filename string, res Result) Result {
	var b strings.Builder
	warnings := res.Diags.Warnings()
	errs := res.Diags.Errors()
	if res.Ok {
		for _, w := range warnings {
			fmt.Fprintf(&b, "Warning (%d): Verilog HDL warning at %s(%d): %s\n",
				quartusCode(w.Category), filename, w.Pos.Line, w.Message)
		}
		fmt.Fprintf(&b, "Info: Quartus Prime Analysis & Synthesis was successful. 0 errors, %d warnings\n",
			len(warnings))
		res.Log = b.String()
		return res
	}
	for _, d := range errs {
		fmt.Fprintf(&b, "Error (%d): Verilog HDL error at %s(%d): %s.",
			quartusCode(d.Category), filename, d.Pos.Line, strings.TrimSuffix(d.Message, "."))
		if d.Suggestion != "" {
			fmt.Fprintf(&b, " %s", d.Suggestion)
		}
		fmt.Fprintf(&b, " File: /tmp/work/%s Line: %d\n", filename, d.Pos.Line)
	}
	for _, w := range warnings {
		fmt.Fprintf(&b, "Warning (%d): Verilog HDL warning at %s(%d): %s\n",
			quartusCode(w.Category), filename, w.Pos.Line, w.Message)
	}
	fmt.Fprintf(&b, "Error: Quartus Prime Analysis & Synthesis was unsuccessful. %d error(s), %d warning(s)\n",
		len(errs), len(warnings))
	res.Log = b.String()
	return res
}

// ByName returns the persona with the given name (case-insensitive). The
// boolean is false for unknown names.
func ByName(name string) (Compiler, bool) {
	switch strings.ToLower(name) {
	case "simple":
		return Simple{}, true
	case "iverilog":
		return IVerilog{}, true
	case "quartus":
		return Quartus{}, true
	}
	return nil, false
}

// All returns the three personas in ascending feedback-quality order, the
// order Table 1's columns use.
func All() []Compiler {
	return []Compiler{Simple{}, IVerilog{}, Quartus{}}
}
