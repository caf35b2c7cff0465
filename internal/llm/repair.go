package llm

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/diag"
	"repro/internal/fixer"
)

// Outcome is the result of attempting one repair strategy.
type Outcome struct {
	// Code is the (possibly rewritten) source.
	Code string
	// Applied is true when the strategy found a structural site and
	// rewrote it. False means the strategy could not even locate a fix.
	Applied bool
	// StructDifficulty in [0,1] rates how much reasoning the concrete
	// instance demanded (a literal index bump is 0.15; untangling index
	// arithmetic — the paper's Fig. 6 — is 0.9+).
	StructDifficulty float64
	// Note describes the edit for the ReAct transcript.
	Note string
}

func failed(code, note string) Outcome {
	return Outcome{Code: code, Applied: false, StructDifficulty: 1, Note: note}
}

// applyStrategy dispatches the repair strategy for the hypothesis'
// category. It performs a real text edit: the returned code is what gets
// recompiled.
func applyStrategy(code string, h Hypothesis) Outcome {
	switch h.Category {
	case diag.CatUndeclaredIdent:
		return repairUndeclared(code, h)
	case diag.CatIndexOutOfRange:
		return repairIndex(code, h)
	case diag.CatInvalidLValue:
		return repairInvalidLValue(code, h)
	case diag.CatAssignToReg:
		return repairAssignToReg(code, h)
	case diag.CatMissingSemicolon:
		return repairMissingSemicolon(code, h)
	case diag.CatUnmatchedBeginEnd:
		return repairBeginEnd(code, h)
	case diag.CatMissingEndmodule:
		return repairMissingEndmodule(code, h)
	case diag.CatCStyleSyntax:
		return repairCStyle(code, h)
	case diag.CatMisplacedDirective:
		return repairDeleteLine(code, h, "removed the misplaced compiler directive")
	case diag.CatKeywordAsIdent:
		return repairDeleteLine(code, h, "removed the declaration that used a reserved word as a name")
	case diag.CatMalformedLiteral:
		return repairLiteral(code, h)
	case diag.CatDuplicateDecl:
		return repairDeleteLine(code, h, "removed the duplicate declaration")
	case diag.CatSensitivityList:
		return repairSensitivity(code, h)
	case diag.CatPortMismatch:
		return repairPortMismatch(code, h)
	case diag.CatModuleStructure:
		return repairModuleStructure(code, h)
	case diag.CatUnexpectedToken, diag.CatGiveUp:
		return repairGenericSyntax(code, h)
	case diag.CatNonConstantExpr:
		return failed(code, "could not rewrite the non-constant expression")
	case diag.CatBadConcat:
		return repairGenericSyntax(code, h)
	default:
		return failed(code, "no strategy for "+h.Category.String())
	}
}

// ---------- helpers ----------

func splitLines(code string) []string { return strings.Split(code, "\n") }

// lineAt returns the 0-based index for a 1-based diagnostic line, clamped.
func lineAt(lines []string, diagLine int) int {
	i := diagLine - 1
	if i < 0 {
		return 0
	}
	if i >= len(lines) {
		return len(lines) - 1
	}
	return i
}

// declaredNames extracts the declared signal names, textually, from the
// source's lines.
func declaredNames(lines []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, line := range lines {
		t := strings.TrimSpace(line)
		if !strings.HasPrefix(t, "input") && !strings.HasPrefix(t, "output") &&
			!strings.HasPrefix(t, "inout") && !strings.HasPrefix(t, "wire") &&
			!strings.HasPrefix(t, "reg") && !strings.HasPrefix(t, "integer") &&
			!strings.HasPrefix(t, "logic") {
			continue
		}
		// Strip the range, then every identifier that is not a keyword is
		// a declared name.
		t = stripRanges(t)
		for a, e := nextIdent(t, 0); a >= 0; a, e = nextIdent(t, e) {
			w := t[a:e]
			switch w {
			case "input", "output", "inout", "wire", "reg", "logic",
				"integer", "signed":
				continue
			}
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
	}
	return out
}

// editDistance is Levenshtein distance, used to spot misspellings.
func editDistance(a, b string) int {
	la, lb := len(a), len(b)
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = minInt(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[lb]
}

func minInt(xs ...int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// ---------- strategies ----------

func repairUndeclared(code string, h Hypothesis) Outcome {
	if h.Symbol == "" {
		return failed(code, "log did not name the undeclared object")
	}
	// 1) Misspelling: a declared name within edit distance 2.
	var best string
	bestDist := 3
	for _, name := range declaredNames(splitLines(code)) {
		if name == h.Symbol {
			continue
		}
		if d := editDistance(name, h.Symbol); d < bestDist {
			best, bestDist = name, d
		}
	}
	if best != "" {
		out := replaceWord(code, h.Symbol, best)
		return Outcome{
			Code: out, Applied: true, StructDifficulty: 0.2,
			Note: fmt.Sprintf("renamed '%s' to the declared signal '%s'", h.Symbol, best),
		}
	}
	// 2) Control signal used in an event control: restore the port.
	if hasEdgeUse(code, h.Symbol) || isControlName(h.Symbol) {
		out, ok := addInputPort(code, h.Symbol)
		if ok {
			return Outcome{
				Code: out, Applied: true, StructDifficulty: 0.25,
				Note: fmt.Sprintf("added missing input port '%s' to the module header", h.Symbol),
			}
		}
	}
	// 3) Fallback: declare an internal wire or reg depending on how the
	// symbol is written.
	kind := "wire"
	if hasAssignTo(code, h.Symbol) && strings.Contains(code, "always") {
		kind = "reg"
	}
	out, ok := insertAfterHeader(code, fmt.Sprintf("\t%s %s;", kind, h.Symbol))
	if !ok {
		return failed(code, "could not find the module header")
	}
	return Outcome{
		Code: out, Applied: true, StructDifficulty: 0.45,
		Note: fmt.Sprintf("declared '%s' as an internal %s", h.Symbol, kind),
	}
}

func isControlName(s string) bool {
	switch s {
	case "clk", "clock", "rst", "reset", "areset", "en", "ena", "enable", "load":
		return true
	}
	return false
}

// addInputPort inserts "input <name>," as the first port of the header.
func addInputPort(code, name string) (string, bool) {
	idx := strings.Index(code, "(")
	mod := strings.Index(code, "module")
	if idx < 0 || mod < 0 || idx < mod {
		return code, false
	}
	return code[:idx+1] + "\n\tinput " + name + "," + code[idx+1:], true
}

// insertAfterHeader inserts a line right after the module header's ");".
func insertAfterHeader(code, line string) (string, bool) {
	lines := splitLines(code)
	for i, l := range lines {
		if strings.Contains(l, ");") {
			out := append(lines[:i+1:i+1], append([]string{line}, lines[i+1:]...)...)
			return strings.Join(out, "\n"), true
		}
	}
	return code, false
}

var indexMsgRe = regexp.MustCompile(`index (-?\d+)`)
var rangeMsgRe = regexp.MustCompile(`declared range \[(-?\d+):(-?\d+)\]`)
var negArithRe = regexp.MustCompile(`\(0-1\)\*\d+\s*\+\s*`)
var partSelectMsgRe = regexp.MustCompile(`part-select \[(\d+):(\d+)\]`)
var litIndexRe = regexp.MustCompile(`\[(\d+)\]`)

func repairIndex(code string, h Hypothesis) Outcome {
	lines := splitLines(code)
	li := lineAt(lines, h.Line)
	line := lines[li]

	// Hard instance: index arithmetic that folds negative. Recognizing
	// that "(0-1)*K + x" must be deleted is the arithmetic reasoning the
	// paper's failure analysis (Fig. 6) highlights.
	if negArithRe.MatchString(line) {
		fixedLine := negArithRe.ReplaceAllString(line, "")
		lines[li] = fixedLine
		return Outcome{
			Code: strings.Join(lines, "\n"), Applied: true, StructDifficulty: 0.92,
			Note: "recomputed the index arithmetic that underflowed at the loop boundary",
		}
	}

	// Bounds from the log, when present.
	msb := -1
	if m := rangeMsgRe.FindStringSubmatch(h.Excerpt); m != nil {
		hi, _ := strconv.Atoi(m[1])
		lo, _ := strconv.Atoi(m[2])
		if hi >= lo {
			msb = hi
		} else {
			msb = lo
		}
	}
	// Literal index beyond the range: clamp to the MSB.
	if m := indexMsgRe.FindStringSubmatch(h.Excerpt); m != nil && msb >= 0 {
		bad := m[1]
		if pat := "[" + bad + "]"; strings.Contains(line, pat) {
			lines[li] = strings.ReplaceAll(line, pat, fmt.Sprintf("[%d]", msb))
			return Outcome{
				Code: strings.Join(lines, "\n"), Applied: true, StructDifficulty: 0.2,
				Note: fmt.Sprintf("clamped index %s to the declared bound %d", bad, msb),
			}
		}
	}
	// Part-select shifted past the MSB: slide the window back down.
	if m := partSelectMsgRe.FindStringSubmatch(h.Excerpt); m != nil && msb >= 0 {
		hi, _ := strconv.Atoi(m[1])
		lo, _ := strconv.Atoi(m[2])
		delta := hi - msb
		if delta > 0 && lo-delta >= 0 {
			if pat := "[" + m[1] + ":" + m[2] + "]"; strings.Contains(line, pat) {
				lines[li] = strings.ReplaceAll(line, pat, fmt.Sprintf("[%d:%d]", hi-delta, lo-delta))
				return Outcome{
					Code: strings.Join(lines, "\n"), Applied: true, StructDifficulty: 0.45,
					Note: "slid the part-select window back inside the declared range",
				}
			}
		}
	}
	// Last resort: any literal index on the line one past a [N:0]
	// declaration found in the code.
	if msb >= 0 {
		if m := litIndexRe.FindStringSubmatch(line); m != nil {
			if v, _ := strconv.Atoi(m[1]); v > msb {
				lines[li] = strings.Replace(line, "["+m[1]+"]", fmt.Sprintf("[%d]", msb), 1)
				return Outcome{
					Code: strings.Join(lines, "\n"), Applied: true, StructDifficulty: 0.35,
					Note: "clamped the out-of-range index on the flagged line",
				}
			}
		}
	}
	return failed(code, "could not resolve the index expression")
}

func repairInvalidLValue(code string, h Hypothesis) Outcome {
	if h.Symbol == "" {
		return failed(code, "log did not name the invalid l-value")
	}
	// output S / output [..] S  ->  output reg ...
	if start, at, end := outputDecl(code, h.Symbol); start >= 0 && !strings.Contains(code[start:end], "reg") {
		out := code[:start] + "output reg" + code[start+len("output"):at] + h.Symbol + code[end:]
		return Outcome{
			Code: out, Applied: true, StructDifficulty: 0.15,
			Note: fmt.Sprintf("declared output '%s' as reg so the always block may drive it", h.Symbol),
		}
	}
	// wire S; -> reg S;
	if out, ok := retypeDecl(code, "wire", "reg", h.Symbol); ok {
		return Outcome{
			Code: out, Applied: true, StructDifficulty: 0.15,
			Note: fmt.Sprintf("changed '%s' from wire to reg", h.Symbol),
		}
	}
	return failed(code, fmt.Sprintf("could not find the declaration of '%s'", h.Symbol))
}

func repairAssignToReg(code string, h Hypothesis) Outcome {
	if h.Symbol == "" {
		return failed(code, "log did not name the assigned variable")
	}
	if out, ok := dropOutputReg(code, h.Symbol); ok {
		return Outcome{
			Code: out, Applied: true, StructDifficulty: 0.15,
			Note: fmt.Sprintf("removed 'reg' from output '%s' so assign may drive it", h.Symbol),
		}
	}
	if out, ok := retypeDecl(code, "reg", "wire", h.Symbol); ok {
		return Outcome{
			Code: out, Applied: true, StructDifficulty: 0.15,
			Note: fmt.Sprintf("changed '%s' from reg to wire", h.Symbol),
		}
	}
	return failed(code, fmt.Sprintf("could not find the reg declaration of '%s'", h.Symbol))
}

var noSemiEnd = regexp.MustCompile(`(;|\bbegin\b|\bend\b|,|\{)\s*$`)

// controlHeader matches lines that legitimately end without a semicolon:
// block and control-flow headers whose statement continues on the next
// line.
var controlHeader = regexp.MustCompile(`^\s*(if\b|else\b|for\b|while\b|case\b|casez\b|casex\b|always\b|initial\b|module\b|end\b|endcase\b|endmodule\b|\))`)

func repairMissingSemicolon(code string, h Hypothesis) Outcome {
	lines := splitLines(code)
	li := lineAt(lines, h.Line)
	// The parser flags the token after the gap; the missing ';' belongs
	// to the previous substantive line (possibly the flagged one itself).
	for i := li; i >= 0 && i >= li-3; i-- {
		t := strings.TrimRight(lines[i], " \t")
		// The semicolon belongs to the code, not to a trailing comment.
		codePart, comment := t, ""
		if idx := strings.Index(t, "//"); idx >= 0 {
			codePart = strings.TrimRight(t[:idx], " \t")
			comment = " " + t[idx:]
		}
		trimmed := strings.TrimSpace(codePart)
		if trimmed == "" {
			continue
		}
		if !noSemiEnd.MatchString(codePart) && !controlHeader.MatchString(codePart) &&
			!strings.HasSuffix(trimmed, "endmodule") {
			lines[i] = codePart + ";" + comment
			return Outcome{
				Code: strings.Join(lines, "\n"), Applied: true, StructDifficulty: 0.08,
				Note: fmt.Sprintf("added the missing ';' at line %d", i+1),
			}
		}
		if i < li && trimmed != "endmodule" && trimmed != "end" {
			break // previous line already terminated: not this pattern
		}
	}
	return failed(code, "could not locate the unterminated statement")
}

func repairBeginEnd(code string, h Hypothesis) Outcome {
	if strings.Contains(h.Excerpt, "missing 'endmodule'") ||
		strings.Contains(h.Excerpt, "reached end of file") {
		return repairMissingEndmodule(code, h)
	}
	if strings.Contains(h.Excerpt, "without a matching 'begin'") ||
		strings.Contains(h.Excerpt, "without a matching") && strings.Contains(h.Excerpt, "'end'") {
		lines := splitLines(code)
		li := lineAt(lines, h.Line)
		if strings.TrimSpace(lines[li]) == "end" {
			lines = append(lines[:li], lines[li+1:]...)
			return Outcome{
				Code: strings.Join(lines, "\n"), Applied: true, StructDifficulty: 0.2,
				Note: "removed the surplus 'end'",
			}
		}
	}
	// Missing 'end': rebalance by inserting before 'endmodule'.
	begins := fixer.WordCount(code, "begin")
	ends := fixer.WordCount(code, "end")
	if begins > ends {
		lines := splitLines(code)
		for i := len(lines) - 1; i >= 0; i-- {
			if strings.Contains(lines[i], "endmodule") {
				insert := make([]string, begins-ends)
				for j := range insert {
					insert[j] = "\tend"
				}
				out := append(lines[:i:i], append(insert, lines[i:]...)...)
				return Outcome{
					Code: strings.Join(out, "\n"), Applied: true, StructDifficulty: 0.3,
					Note: fmt.Sprintf("inserted %d missing 'end' before endmodule", begins-ends),
				}
			}
		}
	}
	return failed(code, "could not rebalance begin/end")
}

func repairMissingEndmodule(code string, _ Hypothesis) Outcome {
	// Close any open begin blocks first, then the module.
	begins := fixer.WordCount(code, "begin")
	ends := fixer.WordCount(code, "end")
	var b strings.Builder
	b.WriteString(strings.TrimRight(code, " \t\n"))
	for i := 0; i < begins-ends; i++ {
		b.WriteString("\nend")
	}
	b.WriteString("\nendmodule\n")
	return Outcome{
		Code: b.String(), Applied: true, StructDifficulty: 0.08,
		Note: "appended the missing 'endmodule'",
	}
}

var (
	incRe      = regexp.MustCompile(`([A-Za-z_][A-Za-z0-9_]*)\s*\+\+`)
	decRe      = regexp.MustCompile(`([A-Za-z_][A-Za-z0-9_]*)\s*--`)
	compoundRe = regexp.MustCompile(`([A-Za-z_][A-Za-z0-9_]*)\s*([+\-*/&|^])=\s*`)
)

// hasOpAssign reports whether t holds a compound-assignment operator
// ("+=", "-=", "*=", "/=", "&=", "|=", "^="), which every match of
// compoundRe contains.
func hasOpAssign(t string) bool {
	for i := 1; i < len(t); i++ {
		if t[i] == '=' && strings.IndexByte("+-*/&|^", t[i-1]) >= 0 {
			return true
		}
	}
	return false
}

func repairCStyle(code string, _ Hypothesis) Outcome {
	lines := splitLines(code)
	// Rewrite the whole file, not just the flagged line: C idioms travel
	// in groups, and one compile round should clear them all. Each
	// pattern runs only on lines holding the literal its matches need.
	changed := false
	for i, l := range lines {
		orig := l
		if strings.Contains(l, "++") {
			l = incRe.ReplaceAllString(l, "$1 = $1 + 1")
		}
		if strings.Contains(l, "--") {
			l = decRe.ReplaceAllString(l, "$1 = $1 - 1")
		}
		if hasOpAssign(l) {
			l = compoundRe.ReplaceAllString(l, "$1 = $1 $2 ")
		}
		if l != orig {
			lines[i] = l
			changed = true
		}
	}
	// Brace blocks: '{' at line end after ')' or else -> begin, matching
	// lone '}' -> end.
	for i := range lines {
		t := strings.TrimRight(lines[i], " \t")
		if strings.HasSuffix(t, "{") && (strings.Contains(t, ")") || strings.Contains(t, "else")) {
			lines[i] = strings.TrimSuffix(t, "{") + "begin"
			changed = true
			depth := 1
			for j := i + 1; j < len(lines); j++ {
				tj := strings.TrimSpace(lines[j])
				if strings.HasSuffix(strings.TrimRight(lines[j], " \t"), "{") {
					depth++
				}
				if tj == "}" {
					depth--
					if depth == 0 {
						lines[j] = strings.Replace(lines[j], "}", "end", 1)
						break
					}
				}
			}
		}
	}
	if !changed {
		return failed(code, "no C-style construct found to rewrite")
	}
	return Outcome{
		Code: strings.Join(lines, "\n"), Applied: true, StructDifficulty: 0.18,
		Note: "rewrote C-style operators/blocks into Verilog syntax",
	}
}

func repairDeleteLine(code string, h Hypothesis, note string) Outcome {
	lines := splitLines(code)
	li := lineAt(lines, h.Line)
	if strings.TrimSpace(lines[li]) == "" {
		return failed(code, "flagged line is empty")
	}
	lines = append(lines[:li], lines[li+1:]...)
	return Outcome{
		Code: strings.Join(lines, "\n"), Applied: true, StructDifficulty: 0.1,
		Note: note,
	}
}

var literalFixRe = regexp.MustCompile(`(\d+)'([bodh])([0-9a-zA-Z_?]+)`)

func repairLiteral(code string, h Hypothesis) Outcome {
	lines := splitLines(code)
	li := lineAt(lines, h.Line)
	line := lines[li]
	m := literalFixRe.FindStringSubmatchIndex(line)
	if m == nil {
		return failed(code, "no literal found on the flagged line")
	}
	base := line[m[4]:m[5]]
	digits := line[m[6]:m[7]]
	var valid string
	switch base {
	case "b":
		valid = "01_"
	case "o":
		valid = "01234567_"
	case "d":
		valid = "0123456789_"
	case "h":
		valid = "0123456789abcdefABCDEF_"
	}
	var cleaned strings.Builder
	for _, c := range digits {
		if strings.ContainsRune(valid, c) {
			cleaned.WriteRune(c)
		}
	}
	if cleaned.Len() == 0 {
		cleaned.WriteByte('0')
	}
	lines[li] = line[:m[6]] + cleaned.String() + line[m[7]:]
	return Outcome{
		Code: strings.Join(lines, "\n"), Applied: true, StructDifficulty: 0.15,
		Note: "removed the digits that are illegal for the literal's base",
	}
}

func repairSensitivity(code string, h Hypothesis) Outcome {
	lines := splitLines(code)
	li := lineAt(lines, h.Line)
	// Find the nearest 'always' at or before the flagged line that lacks
	// an '@'.
	for i := li; i >= 0; i-- {
		t := lines[i]
		if strings.Contains(t, "always") && !strings.Contains(t, "@") {
			event := " @(*)"
			if strings.Contains(code, "<=") && clkInputRe.MatchString(code) {
				event = " @(posedge clk)"
			}
			lines[i] = strings.Replace(t, "always", "always"+event, 1)
			return Outcome{
				Code: strings.Join(lines, "\n"), Applied: true, StructDifficulty: 0.2,
				Note: "added the missing event control to the always block",
			}
		}
	}
	return failed(code, "could not find the always block missing its event control")
}

// clkInputRe matches an input declaration that names clk.
var clkInputRe = regexp.MustCompile(`\binput\b[^;\n)]*\bclk\b`)

func repairPortMismatch(code string, h Hypothesis) Outcome {
	if strings.Contains(h.Excerpt, "expected a port name") {
		// A deleted port left a dangling comma before ')'.
		lines := splitLines(code)
		li := lineAt(lines, h.Line)
		for i := li; i >= 0 && i >= li-3; i-- {
			t := strings.TrimRight(lines[i], " \t")
			if strings.HasSuffix(t, ",") {
				lines[i] = strings.TrimSuffix(t, ",")
				return Outcome{
					Code: strings.Join(lines, "\n"), Applied: true, StructDifficulty: 0.15,
					Note: "removed the dangling comma in the port list",
				}
			}
		}
	}
	if h.Symbol == "" {
		return failed(code, "log did not name the port")
	}
	switch {
	case strings.Contains(h.Excerpt, "no direction declaration"):
		out, ok := insertAfterHeader(code, "\tinput "+h.Symbol+";")
		if !ok {
			return failed(code, "could not find the module header")
		}
		return Outcome{
			Code: out, Applied: true, StructDifficulty: 0.35,
			Note: fmt.Sprintf("declared a direction for port '%s'", h.Symbol),
		}
	case strings.Contains(h.Excerpt, "does not appear in the module port list"):
		idx := strings.Index(code, "(")
		if idx < 0 {
			return failed(code, "could not find the port list")
		}
		out := code[:idx+1] + h.Symbol + ", " + code[idx+1:]
		return Outcome{
			Code: out, Applied: true, StructDifficulty: 0.3,
			Note: fmt.Sprintf("added '%s' to the module port list", h.Symbol),
		}
	}
	return failed(code, "port conflict requires interface redesign")
}

func repairModuleStructure(code string, h Hypothesis) Outcome {
	if strings.Contains(h.Excerpt, "without a matching 'module'") {
		return repairDeleteLine(code, h, "removed the stray 'endmodule'")
	}
	if strings.Contains(h.Excerpt, "outside of any module") {
		return repairDeleteLine(code, h, "removed the statement that sat outside the module")
	}
	return failed(code, "module structure damage too severe for a local fix")
}

// repairGenericSyntax is the low-information fallback for bare "syntax
// error" hypotheses: try the most common cause (a missing semicolon on or
// above the flagged line), otherwise rewrite obvious C idioms.
func repairGenericSyntax(code string, h Hypothesis) Outcome {
	if out := repairCStyle(code, h); out.Applied {
		out.StructDifficulty = 0.4
		return out
	}
	if out := repairMissingSemicolon(code, h); out.Applied {
		out.StructDifficulty = 0.5
		return out
	}
	begins, ends := fixer.WordCount(code, "begin"), fixer.WordCount(code, "end")
	if begins != ends {
		if out := repairBeginEnd(code, h); out.Applied {
			out.StructDifficulty = 0.5
			return out
		}
	}
	return failed(code, "could not infer the cause from a bare syntax error")
}

// ---------- damage model ----------

// botch applies a plausible-but-wrong edit: what an LLM does when it
// confidently "fixes" the wrong thing. The damage sometimes introduces a
// brand-new error, which One-shot prompting cannot recover from.
func botch(code string, rng *rand.Rand) (string, string) {
	lines := splitLines(code)
	var candidates []int
	inHeader := true
	for i, l := range lines {
		t := strings.TrimSpace(l)
		if strings.Contains(t, ");") {
			if inHeader {
				inHeader = false
				continue
			}
		}
		if inHeader || t == "" || t == "endmodule" || strings.HasPrefix(t, "module") {
			continue
		}
		candidates = append(candidates, i)
	}
	if len(candidates) == 0 {
		return code, "made no change"
	}
	i := candidates[rng.Intn(len(candidates))]
	switch rng.Intn(4) {
	case 0: // delete a line it wrongly blames
		lines = append(lines[:i], lines[i+1:]...)
		return strings.Join(lines, "\n"), fmt.Sprintf("deleted line %d", i+1)
	case 1: // duplicate a statement
		lines = append(lines[:i+1:i+1], append([]string{lines[i]}, lines[i+1:]...)...)
		return strings.Join(lines, "\n"), fmt.Sprintf("duplicated line %d", i+1)
	case 2: // drop a semicolon
		if strings.Contains(lines[i], ";") {
			lines[i] = strings.Replace(lines[i], ";", "", 1)
			return strings.Join(lines, "\n"), fmt.Sprintf("mangled line %d", i+1)
		}
		return code, "made no change"
	default: // cosmetic rewrite that fixes nothing
		lines[i] = lines[i] + " // revised"
		return strings.Join(lines, "\n"), fmt.Sprintf("rewrote line %d without fixing it", i+1)
	}
}
