// Package analyze is a rule-based semantic lint engine over the
// elaborated design (verilog AST + sema.Design). It catches the classes
// of RTL bugs that parse and elaborate cleanly but misbehave in
// hardware: inferred latches, incomplete sensitivity lists, misused
// assignment operators, cross-always write races, combinational loops,
// silent width truncation, read-before-write (X-propagation) hazards,
// dead signals, and the static aliasing constructs behind the
// engine/walker divergences in TestEngineRegressions.
//
// Each rule carries a stable code (L001...), a diag.Category, and a
// default severity. Findings are ordinary diag.Diagnostics with the
// Rule field set, so every downstream consumer — cmd/vlint, the
// fixer's feedback loop, the serving tier, the differential fuzzer —
// handles them with the same machinery as frontend diagnostics.
//
// The engine runs on a best-effort design: sema errors do not stop it
// (rules nil-guard missing signals), only parse errors do. That is what
// lets analyzer findings ride along with elaboration errors in the
// fixer's feedback during a repair loop.
package analyze

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/diag"
	"repro/internal/sema"
	"repro/internal/verilog"
)

// Rule describes one lint pass.
type Rule struct {
	// Code is the stable per-rule code ("L001"), stamped into every
	// finding's Rule field.
	Code string
	// Name is the kebab-case rule name used by -rules selections.
	Name string
	// Category classifies the findings the rule emits.
	Category diag.Category
	// Severity is the default severity (overridable per run).
	Severity diag.Severity
	// Doc is a one-line description for listings.
	Doc string

	run func(*pass)
}

// registry lists every rule in code order. Codes are append-only: a
// retired rule's code is never reused.
var registry = []Rule{
	{Code: "L001", Name: "inferred-latch", Category: diag.CatInferredLatch, Severity: diag.SeverityWarning,
		Doc: "combinational always block does not assign a variable on every path", run: runInferredLatch},
	{Code: "L002", Name: "incomplete-sensitivity", Category: diag.CatIncompleteSensitivity, Severity: diag.SeverityWarning,
		Doc: "level-sensitive event list omits a signal the block reads", run: runIncompleteSensitivity},
	{Code: "L003", Name: "nonblocking-in-comb", Category: diag.CatAssignStyle, Severity: diag.SeverityWarning,
		Doc: "nonblocking assignment inside a combinational always block", run: runNonblockingInComb},
	{Code: "L004", Name: "blocking-in-seq", Category: diag.CatAssignStyle, Severity: diag.SeverityWarning,
		Doc: "blocking assignment to a register inside a clocked always block", run: runBlockingInSeq},
	{Code: "L005", Name: "write-race", Category: diag.CatMultipleDrivers, Severity: diag.SeverityWarning,
		Doc: "signal written from multiple always blocks or mixed with a continuous driver", run: runWriteRace},
	{Code: "L006", Name: "comb-loop", Category: diag.CatCombLoop, Severity: diag.SeverityWarning,
		Doc: "combinational feedback cycle with no register to break it", run: runCombLoop},
	{Code: "L007", Name: "width-trunc", Category: diag.CatWidthMismatch, Severity: diag.SeverityWarning,
		Doc: "expression width exceeds (or falls short of) the assignment target", run: runWidthTrunc},
	{Code: "L008", Name: "read-before-write", Category: diag.CatReadBeforeWrite, Severity: diag.SeverityWarning,
		Doc: "combinational block reads a variable before assigning it", run: runReadBeforeWrite},
	{Code: "L009", Name: "dead-signal", Category: diag.CatUnusedSignal, Severity: diag.SeverityWarning,
		Doc: "declared signal is never read (or never used at all)", run: runDeadSignal},
	{Code: "L010", Name: "alias-hazard", Category: diag.CatAliasHazard, Severity: diag.SeverityWarning,
		Doc: "part-select assigned from its own base signal, or loop variable shared across always blocks", run: runAliasHazard},
}

// Rules returns every registered rule, in stable code order.
func Rules() []Rule {
	out := make([]Rule, len(registry))
	copy(out, registry)
	return out
}

// RuleByName resolves a rule code or name.
func RuleByName(s string) (Rule, bool) {
	for _, r := range registry {
		if r.Code == s || r.Name == s {
			return r, true
		}
	}
	return Rule{}, false
}

// ResolveRules maps a list of codes/names to rules, rejecting unknowns.
// An empty list selects every rule.
func ResolveRules(names []string) ([]Rule, error) {
	if len(names) == 0 {
		return Rules(), nil
	}
	var out []Rule
	seen := map[string]bool{}
	for _, n := range names {
		r, ok := RuleByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown rule %q (run with -rules list for the catalogue)", n)
		}
		if !seen[r.Code] {
			seen[r.Code] = true
			out = append(out, r)
		}
	}
	return out, nil
}

// Options configures one analyzer run.
type Options struct {
	// Rules selects rules by code or name; empty selects all. Unknown
	// names are ignored here — validate user input with ResolveRules.
	Rules []string
	// Severity overrides rule severities. Keys are rule codes, rule
	// names, or "all"; "all" applies first, specific keys win.
	Severity map[string]diag.Severity
}

func (o Options) severityFor(r Rule) diag.Severity {
	sev := r.Severity
	if s, ok := o.Severity["all"]; ok {
		sev = s
	}
	if s, ok := o.Severity[r.Code]; ok {
		sev = s
	}
	if s, ok := o.Severity[r.Name]; ok {
		sev = s
	}
	return sev
}

func (o Options) selected() []Rule {
	if len(o.Rules) == 0 {
		return Rules()
	}
	rules, err := ResolveRules(o.Rules)
	if err != nil {
		// Unknown names were already rejected by callers that care;
		// keep the known subset here.
		var out []Rule
		for _, n := range o.Rules {
			if r, ok := RuleByName(n); ok {
				out = append(out, r)
			}
		}
		return out
	}
	return rules
}

// pass is the per-rule execution context.
type pass struct {
	mod    *verilog.Module
	design *sema.Design
	rule   Rule
	sev    diag.Severity
	out    *diag.List
}

// signal resolves a module-level signal, nil-safe under sema errors.
func (p *pass) signal(name string) *sema.Signal {
	if p.design == nil || p.design.Signals == nil {
		return nil
	}
	return p.design.Signals[name]
}

// report appends one finding for the current rule.
func (p *pass) report(pos diag.Pos, related []diag.Pos, sym, format string, args ...any) {
	d := diag.Diagnostic{
		Severity: p.sev,
		Category: p.rule.Category,
		Pos:      pos,
		Symbol:   sym,
		Message:  fmt.Sprintf(format, args...),
		Rule:     p.rule.Code,
	}
	if len(related) > 0 {
		d.Related = append([]diag.Pos(nil), related...)
	}
	p.out.Add(d)
}

// Run executes the selected rules over an elaborated design and returns
// the findings sorted by position. The design may carry elaboration
// errors; rules degrade gracefully around missing symbols. A nil file
// or design yields no findings.
func Run(file *verilog.SourceFile, design *sema.Design, opts Options) diag.List {
	if file == nil || design == nil || design.Module == nil {
		return nil
	}
	var out diag.List
	for _, r := range opts.selected() {
		p := &pass{mod: design.Module, design: design, rule: r, sev: opts.severityFor(r), out: &out}
		r.run(p)
	}
	out = out.Dedupe()
	out.SortByPos()
	return out
}

// Source runs the shared frontend pass (sema.ParseAndElaborate) over
// src, then the analyzer. Sources with parse errors yield no findings
// (there is no tree to analyze); elaboration errors are tolerated. The
// repair loop does not call this: compiler.Result.Findings runs the
// analyzer on the design its compile already elaborated, under the same
// entry condition.
func Source(src string, opts Options) diag.List {
	file, design, _ := sema.ParseAndElaborate(src)
	return Run(file, design, opts)
}

// RenderText renders findings as feedback lines for the fixer's LLM
// prompt, one per finding:
//
//	lint: main.v:12: warning [L001 inferred-latch] 'q' is not assigned ...
//
// The "lint:" prefix keeps the lines out of the compiler-log dialects
// the log analyzer parses (a location regex keyed on "file:line:" would
// otherwise swallow them as compile errors), so they inform the model
// without being mistaken for the error the loop must fix.
func RenderText(filename string, findings diag.List) string {
	if len(findings) == 0 {
		return ""
	}
	var b strings.Builder
	for _, d := range findings {
		name := d.Rule
		if r, ok := RuleByName(d.Rule); ok {
			name = r.Code + " " + r.Name
		}
		fmt.Fprintf(&b, "lint: %s:%d: %s [%s] %s\n", filename, d.Pos.Line, d.Severity, name, d.Message)
		for _, rp := range d.Related {
			fmt.Fprintf(&b, "lint: %s:%d: ... related to the finding above\n", filename, rp.Line)
		}
	}
	return b.String()
}

// sortedNames returns map keys in lexical order — every rule iterates
// its result sets through this so output is deterministic.
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
