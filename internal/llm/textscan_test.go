package llm

// Differential oracle for the model's textual read. The naive* functions
// below are the earlier regex implementations of BlindHypotheses,
// declaredNames, countWord, repairCStyle, headerHasSignal, AnalyzeLog and
// the per-symbol strategies (repairUndeclared, repairIndex,
// repairInvalidLValue, repairAssignToReg), kept verbatim (the
// substitutions: the naive read counts "end" with the regex counter
// instead of the byte scanner it used, and the naive strategies list
// declared names with naiveDeclaredNames, so the oracle shares no
// scanning code with what it checks). The package reads with the byte
// matchers of scan.go; both must agree on every input. The patterns
// below are the ones the package used to compile at init; checkMatchers
// also holds each matcher to its pattern on every line.

import (
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/dataset"
	"repro/internal/diag"
	"repro/internal/fixer"
)

var (
	declRe           = regexp.MustCompile(`\[(\d+):0\]\s*([A-Za-z_][A-Za-z0-9_]*)`)
	idxRe            = regexp.MustCompile(`([A-Za-z_][A-Za-z0-9_]*)\[(\d+)\]`)
	regLineRe        = regexp.MustCompile(`\breg\b[^;]*?\b([A-Za-z_][A-Za-z0-9_]*)`)
	rangeRe          = regexp.MustCompile(`\[[^\]]*\]`)
	compoundAssignRe = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*\s*[+\-*/&|^]=[^=]`)
	badLiteralRe     = regexp.MustCompile(`\d+'b[01_]*[2-9a-fA-F]|\d+'h[0-9a-fA-F_]*[g-zG-Z]`)
	keywordDeclRe    = regexp.MustCompile(`^\s*(wire|reg)\s+(case|begin|end|wire|reg|module)\s*;`)
	edgeUseRe        = regexp.MustCompile(`(posedge|negedge)\s+([A-Za-z_][A-Za-z0-9_]*)`)
	alwaysTargetRe   = regexp.MustCompile(`^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(\[[^\]]*\]\s*)?<?=[^=]`)
	anyIdentRe       = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
	quartusErrRe     = regexp.MustCompile(`Error \((\d+)\): Verilog HDL error at [^(]*\((\d+)\): ([^.]+)`)
	quotedNameRe     = regexp.MustCompile(`["'` + "`" + `]([A-Za-z_][A-Za-z0-9_]*)["'` + "`" + `]`)
	iverilogLocRe    = regexp.MustCompile(`^([^:\s]+):(\d+): (?:error: )?(.*)$`)
)

func naiveBlindHypotheses(code string) []Hypothesis {
	var out []Hypothesis
	lines := strings.Split(code, "\n")

	inModule := false
	beginDepth := 0
	sawEndmodule := false
	declaredRanges := map[string]int{}
	declRe := regexp.MustCompile(`\[(\d+):0\]\s*([A-Za-z_][A-Za-z0-9_]*)`)
	idxRe := regexp.MustCompile(`([A-Za-z_][A-Za-z0-9_]*)\[(\d+)\]`)

	for i, raw := range lines {
		t := strings.TrimSpace(raw)
		lineNo := i + 1
		if strings.HasPrefix(t, "module") {
			inModule = true
		}
		if strings.HasPrefix(t, "endmodule") {
			sawEndmodule = true
			inModule = false
		}
		beginDepth += strings.Count(" "+t+" ", " begin")
		if naiveCountWord(t, "end") > 0 {
			beginDepth -= naiveCountWord(t, "end")
		}
		for _, m := range declRe.FindAllStringSubmatch(t, -1) {
			var msb int
			if _, err := sscanInt(m[1], &msb); err == nil {
				declaredRanges[m[2]] = msb
			}
		}

		// C idioms are the most visually obvious defects.
		if strings.Contains(t, "++") || strings.Contains(t, "--") ||
			compoundAssignRe.MatchString(t) {
			out = append(out, Hypothesis{
				Line: lineNo, Category: diag.CatCStyleSyntax,
				Confidence: 0.72, Excerpt: t,
			})
		}
		if strings.HasSuffix(t, "{") && (strings.Contains(t, ")") || strings.Contains(t, "else")) {
			out = append(out, Hypothesis{
				Line: lineNo, Category: diag.CatCStyleSyntax,
				Confidence: 0.6, Excerpt: t,
			})
		}
		// Directives inside a module body stand out.
		if inModule && strings.HasPrefix(t, "`") && !strings.HasPrefix(t, "`timescale 1ps") {
			if !strings.HasPrefix(t, "module") {
				out = append(out, Hypothesis{
					Line: lineNo, Category: diag.CatMisplacedDirective,
					Confidence: 0.65, Excerpt: t,
				})
			}
		}
		// An always with no '@' reads wrong immediately.
		if strings.Contains(t, "always") && !strings.Contains(t, "@") {
			out = append(out, Hypothesis{
				Line: lineNo, Category: diag.CatSensitivityList,
				Confidence: 0.6, Excerpt: t,
			})
		}
		// Unterminated statement lines: a careful reader notices a missing
		// semicolon, with moderate reliability.
		if looksUnterminated(t, lines, i) {
			out = append(out, Hypothesis{
				Line: lineNo + 1, Category: diag.CatMissingSemicolon,
				Confidence: 0.45, Excerpt: t,
			})
		}
		// Bad digits in literals.
		if m := badLiteralRe.FindString(t); m != "" {
			out = append(out, Hypothesis{
				Line: lineNo, Category: diag.CatMalformedLiteral,
				Confidence: 0.55, Excerpt: t,
			})
		}
		// Reserved word declared as a signal.
		if keywordDeclRe.MatchString(t) {
			out = append(out, Hypothesis{
				Line: lineNo, Category: diag.CatKeywordAsIdent,
				Confidence: 0.5, Excerpt: t,
			})
		}
		// Constant index beyond a [N:0] declaration seen earlier.
		for _, m := range idxRe.FindAllStringSubmatch(t, -1) {
			msb, ok := declaredRanges[m[1]]
			if !ok {
				continue
			}
			var v int
			if _, err := sscanInt(m[2], &v); err == nil && v > msb {
				out = append(out, Hypothesis{
					Line: lineNo, Category: diag.CatIndexOutOfRange,
					Symbol: m[1], Confidence: 0.35,
					Excerpt: t + " // index " + m[2] + " vs [" + itoa(msb) + ":0]",
				})
			}
		}
	}

	// Structural balance.
	if beginDepth > 0 {
		out = append(out, Hypothesis{
			Line: len(lines), Category: diag.CatUnmatchedBeginEnd,
			Confidence: 0.5, Excerpt: "begin/end imbalance",
		})
	}
	if !sawEndmodule && strings.Contains(code, "module") {
		out = append(out, Hypothesis{
			Line: len(lines), Category: diag.CatMissingEndmodule,
			Confidence: 0.7, Excerpt: "file ends without endmodule",
		})
	}

	// Signals driven in always blocks but not declared reg: needs
	// cross-referencing, so lower confidence.
	out = append(out, naiveBlindLValueScan(code, lines)...)
	// posedge of a signal that is not in any declaration.
	out = append(out, naiveBlindUndeclaredScan(code, lines)...)
	return out
}

func naiveBlindLValueScan(code string, lines []string) []Hypothesis {
	var out []Hypothesis
	regDecl := map[string]bool{}
	outPlain := map[string]int{} // output (non-reg) name -> decl line
	for i, raw := range lines {
		t := strings.TrimSpace(raw)
		if m := regexp.MustCompile(`\breg\b[^;]*?\b([A-Za-z_][A-Za-z0-9_]*)`).FindStringSubmatch(t); m != nil {
			regDecl[m[1]] = true
		}
		if strings.Contains(t, "output") && !strings.Contains(t, "reg") {
			noRange := regexp.MustCompile(`\[[^\]]*\]`).ReplaceAllString(t, "")
			for _, w := range anyIdentRe.FindAllString(noRange, -1) {
				if w != "output" && w != "wire" && w != "signed" && w != "input" {
					outPlain[w] = i + 1
				}
			}
		}
	}
	inAlways := false
	for _, raw := range lines {
		t := strings.TrimSpace(raw)
		if strings.Contains(t, "always") {
			inAlways = true
		}
		if strings.HasPrefix(t, "assign") {
			inAlways = false
			// assign driving a reg?
			if m := alwaysTargetRe.FindStringSubmatch(strings.TrimPrefix(t, "assign ")); m != nil && regDecl[m[1]] {
				out = append(out, Hypothesis{
					Category: diag.CatAssignToReg, Symbol: m[1],
					Confidence: 0.35, Excerpt: t,
				})
			}
			continue
		}
		if !inAlways {
			continue
		}
		if m := alwaysTargetRe.FindStringSubmatch(t); m != nil {
			if declLine, isPlainOut := outPlain[m[1]]; isPlainOut && !regDecl[m[1]] {
				out = append(out, Hypothesis{
					Line: declLine, Category: diag.CatInvalidLValue, Symbol: m[1],
					Confidence: 0.38, Excerpt: t,
				})
			}
		}
	}
	return out
}

func naiveBlindUndeclaredScan(code string, lines []string) []Hypothesis {
	declared := map[string]bool{}
	for _, n := range naiveDeclaredNames(code) {
		declared[n] = true
	}
	var out []Hypothesis
	for i, raw := range lines {
		for _, m := range edgeUseRe.FindAllStringSubmatch(raw, -1) {
			if !declared[m[2]] {
				out = append(out, Hypothesis{
					Line: i + 1, Category: diag.CatUndeclaredIdent, Symbol: m[2],
					Confidence: 0.4, Excerpt: strings.TrimSpace(raw),
				})
			}
		}
	}
	return out
}

func naiveDeclaredNames(code string) []string {
	seen := map[string]bool{}
	var out []string
	for _, line := range splitLines(code) {
		t := strings.TrimSpace(line)
		if !strings.HasPrefix(t, "input") && !strings.HasPrefix(t, "output") &&
			!strings.HasPrefix(t, "inout") && !strings.HasPrefix(t, "wire") &&
			!strings.HasPrefix(t, "reg") && !strings.HasPrefix(t, "integer") &&
			!strings.HasPrefix(t, "logic") {
			continue
		}
		// Strip the range, then every identifier that is not a keyword is
		// a declared name.
		noRange := regexp.MustCompile(`\[[^\]]*\]`).ReplaceAllString(t, "")
		for _, w := range anyIdentRe.FindAllString(noRange, -1) {
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

func naiveCountWord(code, word string) int {
	re := regexp.MustCompile(`\b` + word + `\b`)
	return len(re.FindAllString(code, -1))
}

func naiveRepairCStyle(code string, h Hypothesis) Outcome {
	lines := splitLines(code)
	li := lineAt(lines, h.Line)
	// Scan the flagged line first, then the whole file — C idioms travel
	// in groups, and one compile round should clear them all.
	changed := false
	for i := range lines {
		orig := lines[i]
		lines[i] = incRe.ReplaceAllString(lines[i], "$1 = $1 + 1")
		lines[i] = decRe.ReplaceAllString(lines[i], "$1 = $1 - 1")
		lines[i] = compoundRe.ReplaceAllString(lines[i], "$1 = $1 $2 ")
		if lines[i] != orig {
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
	_ = li
	return Outcome{
		Code: strings.Join(lines, "\n"), Applied: true, StructDifficulty: 0.18,
		Note: "rewrote C-style operators/blocks into Verilog syntax",
	}
}

func naiveHeaderHasSignal(code, name string) bool {
	return regexp.MustCompile(`\binput\b[^;\n)]*\b` + regexp.QuoteMeta(name) + `\b`).MatchString(code)
}

func naiveAnalyzeLog(log string) []Hypothesis {
	var out []Hypothesis
	if strings.Contains(log, "Error (") {
		out = append(out, naiveAnalyzeQuartus(log)...)
	}
	out = append(out, naiveAnalyzeIVerilog(log)...)
	return out
}

func naiveAnalyzeQuartus(log string) []Hypothesis {
	quartusErrRe := regexp.MustCompile(`Error \((\d+)\): Verilog HDL error at [^(]*\((\d+)\): ([^.]+)`)
	quotedNameRe := regexp.MustCompile(`["'` + "`" + `]([A-Za-z_][A-Za-z0-9_]*)["'` + "`" + `]`)
	var out []Hypothesis
	for _, line := range strings.Split(log, "\n") {
		m := quartusErrRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		code, _ := strconv.Atoi(m[1])
		lineNo, _ := strconv.Atoi(m[2])
		cat, ok := quartusCodeToCategory[code]
		if !ok {
			cat = diag.CatUnexpectedToken
		}
		h := Hypothesis{
			Line:       lineNo,
			Category:   refineSyntaxCategory(cat, m[3]),
			Confidence: 0.96,
			Excerpt:    strings.TrimSpace(line),
		}
		if sym := quotedNameRe.FindStringSubmatch(m[3]); sym != nil {
			h.Symbol = sym[1]
		}
		out = append(out, h)
	}
	return out
}

func naiveAnalyzeIVerilog(log string) []Hypothesis {
	quotedNameRe := regexp.MustCompile(`["'` + "`" + `]([A-Za-z_][A-Za-z0-9_]*)["'` + "`" + `]`)
	iverilogLocRe := regexp.MustCompile(`^([^:\s]+):(\d+): (?:error: )?(.*)$`)
	if strings.Contains(log, "I give up.") {
		// The degradation case: the log admits defeat; at most the first
		// flagged line is usable, with low confidence and no category.
		var out []Hypothesis
		for _, line := range strings.Split(log, "\n") {
			m := iverilogLocRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			n, _ := strconv.Atoi(m[2])
			out = append(out, Hypothesis{
				Line: n, Category: diag.CatUnexpectedToken,
				Confidence: 0.25, Excerpt: strings.TrimSpace(line),
			})
			break
		}
		return out
	}
	var out []Hypothesis
	for _, line := range strings.Split(log, "\n") {
		if strings.Contains(line, "Error (") {
			continue // quartus line, handled elsewhere
		}
		m := iverilogLocRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		n, _ := strconv.Atoi(m[2])
		msg := m[3]
		h := Hypothesis{Line: n, Excerpt: strings.TrimSpace(line)}
		switch {
		case strings.Contains(msg, "Unable to bind"):
			h.Category = diag.CatUndeclaredIdent
			h.Confidence = 0.85
		case strings.Contains(msg, "not a valid l-value"):
			h.Category = diag.CatInvalidLValue
			h.Confidence = 0.85
			// "out is not a valid l-value in top_module."
			fields := strings.Fields(msg)
			if len(fields) > 0 {
				h.Symbol = strings.Trim(fields[0], "`'\"")
			}
		case strings.Contains(msg, "cannot be driven by primitives"):
			h.Category = diag.CatAssignToReg
			h.Confidence = 0.75
			if f := strings.Fields(msg); len(f) >= 2 {
				h.Symbol = strings.Trim(f[1], ";`'\"")
			}
		case strings.Contains(msg, "out of range"):
			h.Category = diag.CatIndexOutOfRange
			h.Confidence = 0.8
		case strings.Contains(msg, "Error in event expression"):
			h.Category = diag.CatSensitivityList
			h.Confidence = 0.7
		case strings.Contains(msg, "macro names"):
			h.Category = diag.CatMisplacedDirective
			h.Confidence = 0.7
		case strings.Contains(msg, "already been declared"):
			h.Category = diag.CatDuplicateDecl
			h.Confidence = 0.7
		case strings.Contains(msg, "Port") && strings.Contains(msg, "not defined"):
			h.Category = diag.CatPortMismatch
			h.Confidence = 0.65
		case strings.Contains(msg, "Errors in statement block"):
			h.Category = diag.CatUnmatchedBeginEnd
			h.Confidence = 0.55
		case strings.Contains(msg, "Dimensions must be constant"):
			h.Category = diag.CatNonConstantExpr
			h.Confidence = 0.6
		case strings.Contains(msg, "Malformed statement"):
			h.Category = diag.CatMalformedLiteral
			h.Confidence = 0.4
		case strings.Contains(msg, "syntax error"):
			h.Category = diag.CatUnexpectedToken
			h.Confidence = 0.5
		default:
			continue
		}
		if h.Symbol == "" {
			if sym := quotedNameRe.FindStringSubmatch(msg); sym != nil {
				h.Symbol = sym[1]
			}
		}
		out = append(out, h)
	}
	return out
}

func naiveRepairUndeclared(code string, h Hypothesis) Outcome {
	if h.Symbol == "" {
		return failed(code, "log did not name the undeclared object")
	}
	// 1) Misspelling: a declared name within edit distance 2.
	var best string
	bestDist := 3
	for _, name := range naiveDeclaredNames(code) {
		if name == h.Symbol {
			continue
		}
		if d := editDistance(name, h.Symbol); d < bestDist {
			best, bestDist = name, d
		}
	}
	if best != "" {
		re := regexp.MustCompile(`\b` + regexp.QuoteMeta(h.Symbol) + `\b`)
		out := re.ReplaceAllString(code, best)
		return Outcome{
			Code: out, Applied: true, StructDifficulty: 0.2,
			Note: fmt.Sprintf("renamed '%s' to the declared signal '%s'", h.Symbol, best),
		}
	}
	// 2) Control signal used in an event control: restore the port.
	if regexp.MustCompile(`(posedge|negedge)\s+`+regexp.QuoteMeta(h.Symbol)+`\b`).MatchString(code) ||
		isControlName(h.Symbol) {
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
	if regexp.MustCompile(regexp.QuoteMeta(h.Symbol)+`\s*(<=|=)[^=]`).MatchString(code) &&
		strings.Contains(code, "always") {
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

func naiveRepairIndex(code string, h Hypothesis) Outcome {
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
		pat := regexp.MustCompile(`\[` + regexp.QuoteMeta(bad) + `\]`)
		if pat.MatchString(line) {
			lines[li] = pat.ReplaceAllString(line, fmt.Sprintf("[%d]", msb))
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
			pat := regexp.MustCompile(`\[` + regexp.QuoteMeta(m[1]) + `:` + regexp.QuoteMeta(m[2]) + `\]`)
			if pat.MatchString(line) {
				lines[li] = pat.ReplaceAllString(line, fmt.Sprintf("[%d:%d]", hi-delta, lo-delta))
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

func naiveRepairInvalidLValue(code string, h Hypothesis) Outcome {
	if h.Symbol == "" {
		return failed(code, "log did not name the invalid l-value")
	}
	sym := regexp.QuoteMeta(h.Symbol)
	// output S / output [..] S  ->  output reg ...
	outRe := regexp.MustCompile(`output(\s+(?:\[[^\]]+\]\s*)?)` + sym + `\b`)
	if loc := outRe.FindStringSubmatchIndex(code); loc != nil && !strings.Contains(code[loc[0]:loc[1]], "reg") {
		out := code[:loc[0]] + "output reg" + code[loc[2]:loc[3]] + h.Symbol + code[loc[1]:]
		return Outcome{
			Code: out, Applied: true, StructDifficulty: 0.15,
			Note: fmt.Sprintf("declared output '%s' as reg so the always block may drive it", h.Symbol),
		}
	}
	// wire S; -> reg S;
	wireRe := regexp.MustCompile(`\bwire(\s+(?:\[[^\]]+\]\s*)?` + sym + `\s*;)`)
	if wireRe.MatchString(code) {
		out := wireRe.ReplaceAllString(code, "reg$1")
		return Outcome{
			Code: out, Applied: true, StructDifficulty: 0.15,
			Note: fmt.Sprintf("changed '%s' from wire to reg", h.Symbol),
		}
	}
	return failed(code, fmt.Sprintf("could not find the declaration of '%s'", h.Symbol))
}

func naiveRepairAssignToReg(code string, h Hypothesis) Outcome {
	if h.Symbol == "" {
		return failed(code, "log did not name the assigned variable")
	}
	sym := regexp.QuoteMeta(h.Symbol)
	regOutRe := regexp.MustCompile(`output\s+reg(\s+(?:\[[^\]]+\]\s*)?` + sym + `\b)`)
	if regOutRe.MatchString(code) {
		out := regOutRe.ReplaceAllString(code, "output$1")
		return Outcome{
			Code: out, Applied: true, StructDifficulty: 0.15,
			Note: fmt.Sprintf("removed 'reg' from output '%s' so assign may drive it", h.Symbol),
		}
	}
	regDeclRe := regexp.MustCompile(`\breg(\s+(?:\[[^\]]+\]\s*)?` + sym + `\s*;)`)
	if regDeclRe.MatchString(code) {
		out := regDeclRe.ReplaceAllString(code, "wire$1")
		return Outcome{
			Code: out, Applied: true, StructDifficulty: 0.15,
			Note: fmt.Sprintf("changed '%s' from reg to wire", h.Symbol),
		}
	}
	return failed(code, fmt.Sprintf("could not find the reg declaration of '%s'", h.Symbol))
}

// textScanEdgeCases are hand-written inputs aimed at the fast paths'
// guards and at the byte-level word scanner.
var textScanEdgeCases = []string{
	"",
	"\n\n",
	"module top_module(input clk, input [7:0] d, output [7:0] q);\n\talways @(posedge clk) q <= d;\nendmodule\nendmodule\n",
	"module top_module (\n\tinput clk,\n\toutput reg [3:0] q\n);\nendmodule\n\n\nendmodule\n   \nendmodule",
	"module m(input clk, output [3:0] y);\n\treg [7:0] regfile [0:3];\n\treg [1:0] regfile_q;\n\tassign y = regfile[2][3:0];\n\talways @(posedge clk) regfile_q <= regfile_q + 1;\n\tassign regfile_q = 2'b01;\nendmodule",
	"module m(input a, output y); // don't 8'b102 here\n\tassign y = 4'hzz; // it's 4'b12\n\t/* 'q' */ wire w;\nendmodule",
	"module m(input a, output y);\n\tassign y = a;\néend λbegin beginé moduleé endmoduleλ ‘begin’ “end”\nendmoduleé\n",
	"module λ(input é, output y);\n\tbegin\nendmodule",
	"module m(input clk, input a, output reg y);\r\n\talways @(posedge clk) begin\r\n\t\ty <= a;\r\n\tend\r\nendmodule\r\n",
	"module m(input clk, output reg [7:0] c);\n\tinteger i;\n\talways @(posedge clk) {\n\t\tc++;\n\t\ti--;\n\t\tc += 8'd2;\n\t\tc ^= c;\n\t\tc <= c|=1;\n\t}\n\tif (a) {\n\t\tc -=1; }\n\telse {\n\t}\nendmodule",
	"module m(input [3:0] a, output [3:0] y);\n\twire [3:0] t;\n\tassign y = a[7] ^ t[4] ^ t[ 3 ] ^ a[0:0][5];\n\treg case;\n\twire end;\n\t`define X 1\n\t`timescale 1ns/1ps\n\t`timescale 1ps/1ps\nendmodule",
	"module m(output y, output wire signed [3:0] z);\n\talways @(*) begin\n\t\ty = 1;\n\t\tz[1] <= 0;\n\tend\n\tassign q = 1;\nendmodule",
	"module m(input rst);\n\talways @(posedge clk or negedge rst_n) begin\nendmodule",
	"module m(input clk_en, input wire\n clk);\n\talways\n\t\tq <= 1\n\tassign x = y\nendmodule",
	"modulemodule endmoduleendmodule begin_end end_begin _end end_ 0end end0 begin\tend\nbegin;end",
	"\xff\xfebegin\xffend\xc3module\xc3",
	"reg;reg x; reg[3:0]y;regz output[1]o; output reg [3:0] o2; outputs",
	"always @(posedge clk) x += 1; y-=2 ; z*=3; w/=4; v&=5; u|=6; t^=7; s==1; r!=2; q<=3; p>=4",
	"a++ b-- ++c --d a+ +b a- -b i++++ j----",
	"input clk\ninput [3:0] clk;\ninput clkx, clk_b; input a, clk)",
	"  begin begin begin\n end",
	"module m(input [7:0]a, output y);\n\twire [3:0]t;\n\twire [3:0]\tu;\n\tassign y = t[4] ^ u[9] ^ a[8];\nendmodule",
	"module m(input a);\n\talways @(negedge rst_n) q <= a;\n\treg\tcase;\n\twire\tbegin ;\nendmodule",
	"module m(input a, output\treg[1:0] o);\n\treg\tq;\n\tassign q = a;\n\tassign o = {a, a};\nendmodule",
	"output []q;\noutput [ ] r;\nwire [] w;\nwire []\tv ;\nreg []x ;\noutput reg [] y,\noutput reg[]z\noutput\n[3:0]\nn;\nwire[3:0]u;reg u;",
}

// logEdgeCases are hand-written compiler logs aimed at the log read:
// CRLF endings, "I give up." logs, symbols in every quote style, an
// "Error (" line in iverilog form, and negative or huge numbers.
var logEdgeCases = []string{
	"",
	"\n\n",
	"Error (10161): Verilog HDL error at main.v(3): object \"clk\" is not declared. Verify the object name. File: /tmp/work/main.v Line: 3\r\nError (10170): Verilog HDL error at main.v(7): expected ';'\r\nError: Quartus Prime Analysis & Synthesis was unsuccessful. 2 error(s), 0 warning(s)\r\n",
	"main.v:4: error: Unable to bind wire/reg/memory `clk' in `top_module'\r\nmain.v:9: syntax error\r\nmain.v:11: error: q is not a valid l-value in top_module.\r\n3 error(s) during elaboration.\r\n",
	"main.v:2: syntax error\nmain.v:5: syntax error\nI give up.\n",
	"I give up.\nnot a location\nmain.v:7: error: Unable to bind wire/reg/memory `q' in `top_module'\nmain.v:8: syntax error\n",
	"I give up.",
	"main.v:3: syntax error\r\nI give up.\r\n",
	"main.v:3: error: Unable to bind wire/reg/memory 'rst_n' in \"top_module\"\nmain.v:4: error: `sel\" has already been declared in this scope.\nmain.v:5: error: Port \"a_b\" is not defined in module.\nmain.v:6: error: Port ` b` is not defined in module.\nmain.v:7: error: Unable to bind wire/reg/memory `é' in `top'\nmain.v:8: error: Unable to bind wire/reg/memory ''x'' 'y'\n",
	"Error (10161): Verilog HDL error at main.v(3): object `clk' is not declared\nError (10161): Verilog HDL error at main.v(4): object 'rst\" is not declared\nError (10161): Verilog HDL error at main.v(5): object \"9x\" and \"_y\" are not declared\nError (10161): Verilog HDL error at main.v(6): object `a'b' c\n",
	"main.v:3: error: Error (10170): Verilog HDL error at main.v(3): expected ';'\nmain.v:4: error: Error (x) in event expression\nmain.v:5: Error (10170) syntax error\n",
	"main.v:-3: syntax error\nmain.v:99999999999999999999999: error: Malformed statement\nmain.v:0: error: Index q[...] is out of range.\n",
	"Error (10170): Verilog HDL error at main.v(-5): expected ';'\nError (99999999999999999999): Verilog HDL error at main.v(12345678901234567890123): expected ';'.\nError (10232): Verilog HDL error at main.v(0): index 8 out of range\nError (-1): Verilog HDL error at main.v(2): x\n",
	"Error (10170): Verilog HDL error at a(b(3): expected ';'\nError (10170): Verilog HDL error at main.v(3): .\nError (10170): Verilog HDL error at main.v(3): \nError (1) Error (10171): Verilog HDL error at x(4): missing 'endmodule'\nError (10170): Verilog HDL error at x(4):  outside of any module\n",
	"my file.v:3: syntax error\n\tmain.v:3: syntax error\nmain.v:3:syntax error\nmain.v:3: error: \nmain.v\v:3: syntax error\nmain.v:3: error: error: syntax error\nlint: main.v:3: L003 unused\n:3: syntax error\nmain.v:: syntax error\n",
	"main.v:5: error: reg q; cannot be driven by primitives or continuous assignment.\nmain.v:6: error: reg `r`; cannot be driven by primitives or continuous assignment.\nmain.v:7: error: `o' is not a valid l-value in top_module.\nmain.v:8: error:    is not a valid l-value\nmain.v:9: error: reg cannot be driven by primitives\n",
	"Warning (10230): Verilog HDL warning at main.v(3): truncated value\nInfo: Quartus Prime Analysis & Synthesis was successful. 0 errors, 1 warnings\n",
	"Compilation successful.",
	"Correct the syntax error in the code.",
	"\xffmain.v:3: syntax error\nmain.v:3: error: Unable to bind `\xff' `ok\xff`\nError (10161): Verilog HDL error at m\xff(4): `a\xff` \"b\"\n",
}

var (
	textScanOnce   sync.Once
	textScanCorpus []string
)

// textScanInputs returns the differential inputs: every dataset
// reference, llm.Generate samples of each reference at several seeds
// (under the suite's calibrated rates and under syntax-error-only
// rates), and the hand-written edge cases.
func textScanInputs(t testing.TB) []string {
	t.Helper()
	textScanOnce.Do(func() {
		refs := 0
		for _, s := range []dataset.Suite{dataset.SuiteMachine, dataset.SuiteHuman, dataset.SuiteRTLLM} {
			for _, p := range dataset.Problems(s) {
				refs++
				textScanCorpus = append(textScanCorpus, p.RefSource)
				for seed := int64(1); seed <= 3; seed++ {
					rng := rand.New(rand.NewSource(seed*7919 + int64(refs)))
					rates := RatesFor(string(p.Suite), string(p.Difficulty))
					textScanCorpus = append(textScanCorpus, Generate(p.RefSource, rates, rng).Code)
					broken := GenRates{SyntaxGivenFail: 1, LogicOKGivenSyntax: 0.5, TwoErrors: 0.5}
					textScanCorpus = append(textScanCorpus, Generate(p.RefSource, broken, rng).Code)
				}
			}
		}
		if refs != 314 {
			panic(fmt.Sprintf("dataset holds %d references, want 314", refs))
		}
		textScanCorpus = append(textScanCorpus, textScanEdgeCases...)
	})
	return textScanCorpus
}

// checkTextScan compares every fast text scan with its naive reference on
// one input: the blind read, the read of its three compiler logs, the
// matchers on each of its lines, and the per-symbol strategies.
func checkTextScan(t *testing.T, code string) {
	t.Helper()
	hyps := BlindHypotheses(code)
	if want := naiveBlindHypotheses(code); !reflect.DeepEqual(hyps, want) {
		t.Fatalf("BlindHypotheses differs on %q:\n got %+v\nwant %+v", code, hyps, want)
	}
	names := declaredNames(splitLines(code))
	if want := naiveDeclaredNames(code); !reflect.DeepEqual(names, want) {
		t.Fatalf("declaredNames differs on %q:\n got %q\nwant %q", code, names, want)
	}
	for _, w := range []string{"begin", "end", "module", "endmodule"} {
		if got, want := fixer.WordCount(code, w), naiveCountWord(code, w); got != want {
			t.Fatalf("WordCount(%q) = %d, regex count %d, on %q", w, got, want, code)
		}
	}
	h := Hypothesis{Line: 1, Category: diag.CatCStyleSyntax}
	if got, want := repairCStyle(code, h), naiveRepairCStyle(code, h); got != want {
		t.Fatalf("repairCStyle differs on %q:\n got %+v\nwant %+v", code, got, want)
	}
	if got, want := clkInputRe.MatchString(code), naiveHeaderHasSignal(code, "clk"); got != want {
		t.Fatalf("clk header match = %v, naive %v, on %q", got, want, code)
	}
	checkMatchers(t, code)
	for _, line := range strings.Split(code, "\n") {
		checkMatchers(t, line)
	}
	for _, c := range [...]compiler.Compiler{compiler.Quartus{}, compiler.IVerilog{}, compiler.Simple{}} {
		hyps = append(hyps, checkLog(t, c.Compile("main.v", code).Log)...)
	}
	// Every declared name, one undeclared name, the symbols the reads
	// named, and symbols that are not identifiers.
	syms := append(names[:len(names):len(names)], "undeclared_q", "q[1]", "a.b", "x$", "é")
	for _, h := range hyps {
		if h.Symbol != "" {
			syms = append(syms, h.Symbol)
		}
	}
	checkSymbolRepairs(t, code, syms)
	checkIndexRepairs(t, code)
}

// checkLog compares AnalyzeLog with its naive reference on one log, and
// the log matchers on each of its lines. It returns the hypotheses.
func checkLog(t *testing.T, log string) []Hypothesis {
	t.Helper()
	got, want := AnalyzeLog(log), naiveAnalyzeLog(log)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AnalyzeLog differs on %q:\n got %+v\nwant %+v", log, got, want)
	}
	for _, line := range strings.Split(log, "\n") {
		lineNo, msg, ok := iverilogLocation(line)
		if m := iverilogLocRe.FindStringSubmatch(line); ok != (m != nil) || ok && (lineNo != m[2] || msg != m[3]) {
			t.Fatalf("iverilogLocation(%q) = %q, %q, %v; regexp %q", line, lineNo, msg, ok, m)
		}
		code, n, msg, ok := quartusError(line)
		if m := quartusErrRe.FindStringSubmatch(line); ok != (m != nil) || ok && (code != m[1] || n != m[2] || msg != m[3]) {
			t.Fatalf("quartusError(%q) = %q, %q, %q, %v; regexp %q", line, code, n, msg, ok, m)
		}
		checkMatchers(t, line)
	}
	return got
}

// checkMatchers holds each matcher of scan.go to the pattern it replaces,
// on one string.
func checkMatchers(t *testing.T, s string) {
	t.Helper()
	fail := func(name string, got, want any) {
		t.Helper()
		t.Fatalf("%s differs on %q:\n got %q\nwant %q", name, s, got, want)
	}
	var got [][]string
	for i := 0; ; {
		msb, name, end := nextDeclRange(s, i)
		if end < 0 {
			break
		}
		got, i = append(got, []string{msb, name}), end
	}
	if want := captures(declRe.FindAllStringSubmatch(s, -1), 1, 2); !reflect.DeepEqual(got, want) {
		fail("nextDeclRange", got, want)
	}
	got = nil
	for i := 0; ; {
		name, index, end := nextConstIndex(s, i)
		if end < 0 {
			break
		}
		got, i = append(got, []string{name, index}), end
	}
	if want := captures(idxRe.FindAllStringSubmatch(s, -1), 1, 2); !reflect.DeepEqual(got, want) {
		fail("nextConstIndex", got, want)
	}
	got = nil
	for i := 0; ; {
		name, end := nextEdgeUse(s, i)
		if end < 0 {
			break
		}
		got, i = append(got, []string{name}), end
	}
	if want := captures(edgeUseRe.FindAllStringSubmatch(s, -1), 2); !reflect.DeepEqual(got, want) {
		fail("nextEdgeUse", got, want)
	}
	var idents []string
	for a, e := nextIdent(s, 0); a >= 0; a, e = nextIdent(s, e) {
		idents = append(idents, s[a:e])
	}
	if want := anyIdentRe.FindAllString(s, -1); !reflect.DeepEqual(idents, want) {
		fail("nextIdent", idents, want)
	}
	if got, want := stripRanges(s), rangeRe.ReplaceAllString(s, ""); got != want {
		fail("stripRanges", got, want)
	}
	for _, c := range []struct {
		name string
		got  bool
		re   *regexp.Regexp
	}{
		{"hasCompoundAssign", hasCompoundAssign(s), compoundAssignRe},
		{"hasBadLiteral", hasBadLiteral(s), badLiteralRe},
		{"isKeywordDecl", isKeywordDecl(s), keywordDeclRe},
	} {
		if want := c.re.MatchString(s); c.got != want {
			fail(c.name, c.got, want)
		}
	}
	for _, c := range []struct {
		name string
		fn   func(string) (string, bool)
		re   *regexp.Regexp
	}{
		{"regDeclName", regDeclName, regLineRe},
		{"assignTarget", assignTarget, alwaysTargetRe},
		{"quotedName", func(s string) (string, bool) { n := quotedName(s); return n, n != "" }, quotedNameRe},
	} {
		name, ok := c.fn(s)
		m := c.re.FindStringSubmatch(s)
		if ok != (m != nil) || ok && name != m[1] {
			fail(c.name, name, m)
		}
	}
}

// captures keeps the given groups of each FindAllStringSubmatch match.
func captures(ms [][]string, groups ...int) [][]string {
	var out [][]string
	for _, m := range ms {
		var c []string
		for _, g := range groups {
			c = append(c, m[g])
		}
		out = append(out, c)
	}
	return out
}

// checkSymbolRepairs compares the strategies that match around a named
// symbol with their naive references, once per symbol.
func checkSymbolRepairs(t *testing.T, code string, syms []string) {
	t.Helper()
	for _, sym := range syms {
		for _, c := range []struct {
			cat          diag.Category
			fast, oracle func(string, Hypothesis) Outcome
		}{
			{diag.CatUndeclaredIdent, repairUndeclared, naiveRepairUndeclared},
			{diag.CatInvalidLValue, repairInvalidLValue, naiveRepairInvalidLValue},
			{diag.CatAssignToReg, repairAssignToReg, naiveRepairAssignToReg},
		} {
			h := Hypothesis{Line: 1, Symbol: sym, Category: c.cat}
			if got, want := c.fast(code, h), c.oracle(code, h); got != want {
				t.Fatalf("%v repair for %q differs on %q:\n got %+v\nwant %+v", c.cat, sym, code, got, want)
			}
		}
	}
}

var partSelectRe = regexp.MustCompile(`\[(\d+):(\d+)\]`)

// checkIndexRepairs compares repairIndex with its naive reference under
// Quartus-style index and part-select messages built from the literal
// indices and part-selects on each line, with bounds on either side.
func checkIndexRepairs(t *testing.T, code string) {
	t.Helper()
	for i, line := range strings.Split(code, "\n") {
		var excerpts []string
		for _, m := range litIndexRe.FindAllStringSubmatch(line, 4) {
			v, _ := strconv.Atoi(m[1])
			excerpts = append(excerpts,
				fmt.Sprintf("index %s cannot fall outside the declared range [%d:0] for vector 'v'", m[1], v-1),
				fmt.Sprintf("index %s cannot fall outside the declared range [0:%d] for vector 'v'", m[1], v+1))
		}
		for _, m := range partSelectRe.FindAllStringSubmatch(line, 4) {
			hi, _ := strconv.Atoi(m[1])
			excerpts = append(excerpts,
				fmt.Sprintf("part-select [%s:%s] is outside the declared range [%d:0] for vector 'v'", m[1], m[2], hi-1),
				fmt.Sprintf("index %s part-select [%s:%s] declared range [%d:0]", m[2], m[1], m[2], hi-2))
		}
		for _, ex := range excerpts {
			h := Hypothesis{Line: i + 1, Category: diag.CatIndexOutOfRange, Excerpt: ex}
			if got, want := repairIndex(code, h), naiveRepairIndex(code, h); got != want {
				t.Fatalf("repairIndex(%q) differs on %q:\n got %+v\nwant %+v", ex, code, got, want)
			}
		}
	}
}

func TestTextScanDifferential(t *testing.T) {
	inputs := textScanInputs(t)
	for _, code := range inputs {
		checkTextScan(t, code)
	}
	for _, code := range textScanEdgeCases {
		checkTextScan(t, strings.ReplaceAll(code, "\n", "\r\n"))
	}
}

func TestAnalyzeLogDifferential(t *testing.T) {
	for _, log := range logEdgeCases {
		checkLog(t, log)
		checkLog(t, strings.ReplaceAll(log, "\n", "\r\n"))
	}
}

func FuzzTextScan(f *testing.F) {
	for _, code := range textScanInputs(f) {
		f.Add(code)
	}
	f.Fuzz(func(t *testing.T, code string) {
		checkTextScan(t, code)
	})
}

// matcherTokens are the pieces TestMatchersOnRandomTokens builds its
// strings from: the literals, classes and separators the matchers branch
// on, including \v (not \s in RE2) and bytes outside ASCII.
var matcherTokens = []string{
	"reg", "wire", "output", "input", "case", "end", "module", "posedge", "negedge", "edge",
	"assign", "q", "a", "clk", "_", "9", "0", "1", "8", "'b", "'h", "2", "f", "g", "Z",
	"[", "]", "[]", ":0]", "[3:0]", "[7]", ":", ";", "=", "<", "+", "-", "|", "^", "(", ")", ".",
	"+=", "-=", "==", "<=", "^=",
	" ", "\t", "\n", "\r", "\f", "\v", "`", "'", "\"", "é", "\xff",
	"Error (", "10161", "): Verilog HDL error at ", "main.v", "): ", "error: ", "I give up.",
}

// TestMatchersOnRandomTokens runs the differential checks on strings
// drawn from matcherTokens, where the patterns' corner cases (adjacent
// brackets, words glued across ranges, quotes of mixed style, runs of
// spaces of every kind) are dense.
func TestMatchersOnRandomTokens(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	syms := []string{"q", "a", "clk", "a9", "reg", "q[1]", "é"}
	for n := 0; n < 6000; n++ {
		var b strings.Builder
		for k := rng.Intn(24); k >= 0; k-- {
			b.WriteString(matcherTokens[rng.Intn(len(matcherTokens))])
		}
		s := b.String()
		checkMatchers(t, s)
		checkLog(t, s)
		checkSymbolRepairs(t, s, syms)
		checkIndexRepairs(t, s)
		if got, want := BlindHypotheses(s), naiveBlindHypotheses(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("BlindHypotheses differs on %q:\n got %+v\nwant %+v", s, got, want)
		}
	}
}

func FuzzAnalyzeLog(f *testing.F) {
	for _, log := range logEdgeCases {
		f.Add(log)
	}
	f.Fuzz(func(t *testing.T, log string) {
		checkLog(t, log)
	})
}
