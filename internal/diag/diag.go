// Package diag defines the structured diagnostics shared by the Verilog
// frontend (lexer, parser, elaborator) and the compiler personas.
//
// Every error the toolchain can emit carries a stable Category. Categories
// are the pivot of the whole reproduction: the error-injection engine tags
// mutations with the category it expects the compiler to report, the RAG
// database keys human guidance by category, and the simulated LLM keys its
// repair strategies by category.
package diag

import (
	"fmt"
	"sort"
	"strings"
)

// Severity classifies how serious a diagnostic is.
type Severity int

const (
	// SeverityWarning does not prevent compilation from succeeding.
	SeverityWarning Severity = iota
	// SeverityError prevents compilation from succeeding.
	SeverityError
)

// String returns "warning" or "error".
func (s Severity) String() string {
	if s == SeverityWarning {
		return "warning"
	}
	return "error"
}

// Category is a stable classification of a syntax or elaboration error.
// The enum mirrors the error taxonomy RTLFixer's retrieval database is
// organized around (error-number tags in Quartus logs, message families in
// iverilog logs).
type Category int

const (
	// CatNone marks a diagnostic with no specific category.
	CatNone Category = iota
	// CatUnexpectedToken is a generic parse error: the parser saw a token
	// it could not use in the current production.
	CatUnexpectedToken
	// CatMissingSemicolon is a statement or declaration missing its ';'.
	CatMissingSemicolon
	// CatUnmatchedBeginEnd is a begin without end (or vice versa).
	CatUnmatchedBeginEnd
	// CatMissingEndmodule is a module body that ends without 'endmodule'.
	CatMissingEndmodule
	// CatUndeclaredIdent is a use of an identifier with no declaration in
	// scope (the paper's canonical example: 'clk' not in the port list).
	CatUndeclaredIdent
	// CatIndexOutOfRange is a constant bit-select or part-select outside
	// the declared range of a vector (paper Fig. 6 failure case).
	CatIndexOutOfRange
	// CatInvalidLValue is a procedural assignment whose target is a net
	// (wire) rather than a variable (reg) — iverilog's
	// "x is not a valid l-value" family.
	CatInvalidLValue
	// CatAssignToReg is a continuous assignment driving a reg.
	CatAssignToReg
	// CatPortMismatch is a port in the header list that is never declared,
	// a declaration that names no port, or a width/direction conflict.
	CatPortMismatch
	// CatDuplicateDecl is the same name declared twice in one scope.
	CatDuplicateDecl
	// CatWidthMismatch is an assignment whose operand widths disagree
	// (warning-level in both reference compilers).
	CatWidthMismatch
	// CatCStyleSyntax is a C/C++ idiom that is not legal Verilog-2001:
	// '++', '--', '+=', braces used as blocks, 'int' declarations inside
	// a non-SystemVerilog source, and so on. The paper notes LLMs are
	// "confident in incorrect syntax, possibly due to it being accepted
	// in C/C++".
	CatCStyleSyntax
	// CatMisplacedDirective is a compiler directive (e.g. `timescale)
	// appearing where it is not allowed, such as inside a module body.
	// The paper's simple rule-based fixer exists largely for this class.
	CatMisplacedDirective
	// CatNonConstantExpr is a non-constant expression where a constant is
	// required (range bounds, parameter values, replication counts).
	CatNonConstantExpr
	// CatKeywordAsIdent is a reserved word used as an identifier.
	CatKeywordAsIdent
	// CatMalformedLiteral is an unparsable number, e.g. 8'hXYZ or 4'd1F.
	CatMalformedLiteral
	// CatSensitivityList is a malformed or missing event control on an
	// always block (e.g. 'always begin' with no '@').
	CatSensitivityList
	// CatModuleStructure is a structural problem with the module itself:
	// missing module header, code outside any module, duplicate
	// endmodule.
	CatModuleStructure
	// CatBadConcat is a malformed concatenation/replication, e.g. an
	// unsized literal inside a concatenation.
	CatBadConcat
	// CatGiveUp is iverilog's famous catch-all: the compiler hit an
	// internal limit and produced an uninformative "I give up." log.
	CatGiveUp
	// CatMultipleDrivers is a signal driven from more than one place
	// (two continuous assignments, or an assignment and an always block).
	// Warning-level: two-state simulation resolves it by last-writer-wins,
	// but it is almost always a bug.
	CatMultipleDrivers

	// The categories below are emitted only by the semantic lint engine
	// (internal/analyze), never by the frontend. They classify code that
	// elaborates cleanly but is likely to misbehave in hardware.

	// CatInferredLatch is a combinational always block that does not assign
	// a variable on every control path, so synthesis infers a level-
	// sensitive latch to hold the old value.
	CatInferredLatch
	// CatIncompleteSensitivity is a level-sensitive always block whose
	// explicit event list omits a signal the body reads — simulation and
	// synthesis disagree about when the block wakes.
	CatIncompleteSensitivity
	// CatAssignStyle is a procedural assignment using the wrong operator
	// for its context: blocking '=' inside a clocked block, or
	// nonblocking '<=' inside a combinational block.
	CatAssignStyle
	// CatCombLoop is a cycle through combinational logic (continuous
	// assignments and level-sensitive always blocks) with no register to
	// break it.
	CatCombLoop
	// CatReadBeforeWrite is a combinational block that reads a variable it
	// also assigns before any path has assigned it — the read sees the
	// stale value from the previous activation (an X in 4-state sim).
	CatReadBeforeWrite
	// CatUnusedSignal is a declared signal that nothing reads (or nothing
	// reads nor writes).
	CatUnusedSignal
	// CatAliasHazard is a statically detectable aliasing construct: a
	// part-select store whose right-hand side reads the same underlying
	// signal, or a module-scope loop variable shared as a nonblocking
	// index across always blocks. These are exactly the shapes behind the
	// engine/walker divergences in TestEngineRegressions.
	CatAliasHazard

	// CatResourceLimit is a declaration the frontend refuses because it
	// exceeds a fixed resource bound (a signal wider than
	// sema.MaxSignalBits). It is an elaboration error, listed last only so
	// that adding it moved no other category's value.
	CatResourceLimit

	numCategories
)

var categoryNames = map[Category]string{
	CatNone:               "none",
	CatUnexpectedToken:    "unexpected-token",
	CatMissingSemicolon:   "missing-semicolon",
	CatUnmatchedBeginEnd:  "unmatched-begin-end",
	CatMissingEndmodule:   "missing-endmodule",
	CatUndeclaredIdent:    "undeclared-identifier",
	CatIndexOutOfRange:    "index-out-of-range",
	CatInvalidLValue:      "invalid-lvalue",
	CatAssignToReg:        "assign-to-reg",
	CatPortMismatch:       "port-mismatch",
	CatDuplicateDecl:      "duplicate-declaration",
	CatWidthMismatch:      "width-mismatch",
	CatCStyleSyntax:       "c-style-syntax",
	CatMisplacedDirective: "misplaced-directive",
	CatNonConstantExpr:    "non-constant-expression",
	CatKeywordAsIdent:     "keyword-as-identifier",
	CatMalformedLiteral:   "malformed-literal",
	CatSensitivityList:    "sensitivity-list",
	CatModuleStructure:    "module-structure",
	CatBadConcat:          "bad-concatenation",
	CatGiveUp:             "give-up",
	CatMultipleDrivers:    "multiple-drivers",

	CatInferredLatch:         "inferred-latch",
	CatIncompleteSensitivity: "incomplete-sensitivity",
	CatAssignStyle:           "assignment-style",
	CatCombLoop:              "combinational-loop",
	CatReadBeforeWrite:       "read-before-write",
	CatUnusedSignal:          "unused-signal",
	CatAliasHazard:           "alias-hazard",

	CatResourceLimit: "resource-limit",
}

// String returns the stable kebab-case tag for the category. These tags are
// what the RAG database keys on.
func (c Category) String() string {
	if s, ok := categoryNames[c]; ok {
		return s
	}
	return fmt.Sprintf("category(%d)", int(c))
}

// Categories returns every defined category except CatNone, in a stable
// order. Useful for exhaustive tables in tests and the RAG database.
func Categories() []Category {
	out := make([]Category, 0, int(numCategories)-1)
	for c := CatUnexpectedToken; c < numCategories; c++ {
		out = append(out, c)
	}
	return out
}

// Pos is a position in a source file, 1-based like every compiler the paper
// quotes ("main.v:5: error: ...").
type Pos struct {
	Line int
	Col  int
}

// String formats the position as "line:col" (or "line" when the column is
// unknown).
func (p Pos) String() string {
	if p.Col > 0 {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%d", p.Line)
}

// Before reports whether p occurs strictly before q in the file.
func (p Pos) Before(q Pos) bool {
	if p.Line != q.Line {
		return p.Line < q.Line
	}
	return p.Col < q.Col
}

// Diagnostic is one message from the toolchain. Personas format it into
// their own log dialects; the structured fields survive so that tests and
// the agent's oracle can inspect ground truth.
type Diagnostic struct {
	Severity Severity
	Category Category
	Pos      Pos
	// Symbol is the identifier the diagnostic is about, when there is one
	// ("clk", "out", ...). Personas interpolate it into messages and the
	// exact-match RAG retriever uses it for context.
	Symbol string
	// Message is the persona-neutral description of the problem.
	Message string
	// Suggestion is an optional hint about how to fix the problem. Only
	// the high-quality persona (Quartus-style) surfaces it.
	Suggestion string
	// Rule is the stable per-rule code ("L001", ...) when the diagnostic
	// came from the semantic lint engine; empty for frontend diagnostics.
	Rule string
	// Related holds additional positions involved in the problem — e.g.
	// every conflicting drive site of a multiply-driven signal. Pos is the
	// primary site; Related lists the others, in source order.
	Related []Pos
}

// Error makes Diagnostic usable as an error value.
func (d Diagnostic) Error() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Severity, d.Message)
}

// Errorf builds an error-severity diagnostic.
func Errorf(cat Category, pos Pos, format string, args ...any) Diagnostic {
	return Diagnostic{
		Severity: SeverityError,
		Category: cat,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	}
}

// Warningf builds a warning-severity diagnostic.
func Warningf(cat Category, pos Pos, format string, args ...any) Diagnostic {
	return Diagnostic{
		Severity: SeverityWarning,
		Category: cat,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	}
}

// List is an ordered collection of diagnostics with convenience queries.
type List []Diagnostic

// Add appends a diagnostic.
func (l *List) Add(d Diagnostic) { *l = append(*l, d) }

// HasErrors reports whether any diagnostic is error-severity.
func (l List) HasErrors() bool {
	for _, d := range l {
		if d.Severity == SeverityError {
			return true
		}
	}
	return false
}

// Errors returns only the error-severity diagnostics.
func (l List) Errors() List {
	var out List
	for _, d := range l {
		if d.Severity == SeverityError {
			out = append(out, d)
		}
	}
	return out
}

// Warnings returns only the warning-severity diagnostics.
func (l List) Warnings() List {
	var out List
	for _, d := range l {
		if d.Severity == SeverityWarning {
			out = append(out, d)
		}
	}
	return out
}

// Categories returns the distinct categories present, sorted by enum value.
func (l List) Categories() []Category {
	seen := map[Category]bool{}
	for _, d := range l {
		seen[d.Category] = true
	}
	out := make([]Category, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// First returns the first error-severity diagnostic, mirroring a compiler
// that stops at the first hard error. The second return is false when the
// list holds no errors.
func (l List) First() (Diagnostic, bool) {
	for _, d := range l {
		if d.Severity == SeverityError {
			return d, true
		}
	}
	return Diagnostic{}, false
}

// SortByPos orders diagnostics by source position (stable for equal
// positions).
func (l List) SortByPos() {
	sort.SliceStable(l, func(i, j int) bool { return l[i].Pos.Before(l[j].Pos) })
}

// Dedupe removes diagnostics that repeat an earlier one exactly (same
// severity, category, position, symbol, and message), preserving order.
// Repeated elaboration of unrolled constructs can report the same
// problem several times; rendering each copy only spams the fixer
// prompt. Returns the deduplicated list (the receiver is not modified;
// a list with no duplicates is returned as-is, allocation-free).
func (l List) Dedupe() List {
	type key struct {
		sev  Severity
		cat  Category
		pos  Pos
		sym  string
		msg  string
		rule string
	}
	seen := make(map[key]bool, len(l))
	dup := false
	for _, d := range l {
		k := key{d.Severity, d.Category, d.Pos, d.Symbol, d.Message, d.Rule}
		if seen[k] {
			dup = true
			break
		}
		seen[k] = true
	}
	if !dup {
		return l
	}
	out := make(List, 0, len(l))
	clear(seen)
	for _, d := range l {
		k := key{d.Severity, d.Category, d.Pos, d.Symbol, d.Message, d.Rule}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, d)
	}
	return out
}

// Summary renders a compact single-line summary, mostly for logs and tests.
func (l List) Summary() string {
	if len(l) == 0 {
		return "no diagnostics"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d error(s), %d warning(s):", len(l.Errors()), len(l.Warnings()))
	for _, d := range l {
		fmt.Fprintf(&b, " [%s@%s]", d.Category, d.Pos)
	}
	return b.String()
}
