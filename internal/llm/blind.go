package llm

import (
	"slices"
	"strings"

	"repro/internal/diag"
	"repro/internal/fixer"
	"repro/internal/memo"
)

// blind is the process-wide cache of BlindHypotheses, which Model.Repair
// reads through: the inspection is a pure function of the code, and the
// loop shows the model the same candidates again and again (every
// configuration's, and every revision returned unchanged). Hypotheses
// are values, so a caller's range loop copies each one; the slice's
// capacity is clipped, so an append copies it too.
var blind = memo.NewReads(blindCapacity, func(code string) []Hypothesis {
	return slices.Clip(BlindHypotheses(code))
})

// blindCapacity bounds the blind-inspection cache. Measured on perfbench
// (seed 41, --seconds 8, whole process, 2-vCPU Xeon): repair-sweep
// inspects 3,022 distinct candidates in 54,138 calls, which 4096 entries
// hold with no eviction, while 1024 displace 330 of them and miss again;
// serve-mix needs 681. passk-eval's candidates are mostly new, so no
// bound makes its hit rate pass about 43% (10k of 23k calls at 4096 and
// at 16384).
const blindCapacity = 4096

// BlindHypotheses inspects the code visually, with no compiler feedback —
// the model's only option under the "Simple" feedback setting, and the
// mechanism that lets a strong model fix a masked second error in the same
// rewrite. Only defect classes with a visual signature are detectable, and
// at lower confidence than a compiler log would give; that confidence gap
// is exactly what Table 1's Simple-vs-iverilog-vs-Quartus columns measure.
func BlindHypotheses(code string) []Hypothesis {
	var out []Hypothesis
	lines := strings.Split(code, "\n")

	inModule := false
	beginDepth := 0
	sawEndmodule := false
	declaredRanges := map[string]int{}

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
		// A begin opens after a space or at the start of the line.
		beginDepth += strings.Count(t, " begin") - fixer.WordCount(t, "end")
		if strings.HasPrefix(t, "begin") {
			beginDepth++
		}
		for j := 0; ; {
			digits, name, end := nextDeclRange(t, j)
			if end < 0 {
				break
			}
			var msb int
			if _, err := sscanInt(digits, &msb); err == nil {
				declaredRanges[name] = msb
			}
			j = end
		}

		// C idioms are the most visually obvious defects.
		if strings.Contains(t, "++") || strings.Contains(t, "--") || hasCompoundAssign(t) {
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
		if hasBadLiteral(t) {
			out = append(out, Hypothesis{
				Line: lineNo, Category: diag.CatMalformedLiteral,
				Confidence: 0.55, Excerpt: t,
			})
		}
		// Reserved word declared as a signal.
		if isKeywordDecl(t) {
			out = append(out, Hypothesis{
				Line: lineNo, Category: diag.CatKeywordAsIdent,
				Confidence: 0.5, Excerpt: t,
			})
		}
		// Constant index beyond a [N:0] declaration seen earlier.
		for j := 0; len(declaredRanges) > 0; {
			name, index, end := nextConstIndex(t, j)
			if end < 0 {
				break
			}
			j = end
			msb, ok := declaredRanges[name]
			if !ok {
				continue
			}
			var v int
			if _, err := sscanInt(index, &v); err == nil && v > msb {
				out = append(out, Hypothesis{
					Line: lineNo, Category: diag.CatIndexOutOfRange,
					Symbol: name, Confidence: 0.35,
					Excerpt: t + " // index " + index + " vs [" + itoa(msb) + ":0]",
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
	out = blindLValueScan(out, lines)
	// posedge of a signal that is not in any declaration.
	return blindUndeclaredScan(out, lines)
}

func looksUnterminated(t string, lines []string, i int) bool {
	if t == "" || strings.HasSuffix(t, ";") || strings.HasSuffix(t, ",") {
		return false
	}
	if !strings.HasPrefix(t, "assign") && !strings.Contains(t, "<=") {
		return false
	}
	if strings.HasSuffix(t, "begin") || strings.HasSuffix(t, "(") ||
		strings.HasSuffix(t, "?") || strings.HasSuffix(t, ":") ||
		strings.HasSuffix(t, "|") || strings.HasSuffix(t, "&") ||
		strings.HasSuffix(t, "+") || strings.HasSuffix(t, "=") {
		return false // likely a deliberate continuation
	}
	// Next substantive line starting a new construct strengthens the read.
	for j := i + 1; j < len(lines); j++ {
		n := strings.TrimSpace(lines[j])
		if n == "" {
			continue
		}
		return strings.HasPrefix(n, "assign") || strings.HasPrefix(n, "end") ||
			strings.HasPrefix(n, "always") || strings.HasPrefix(n, "if") ||
			strings.HasPrefix(n, "wire") || strings.HasPrefix(n, "reg")
	}
	return false
}

func blindLValueScan(out []Hypothesis, lines []string) []Hypothesis {
	regDecl := map[string]bool{}
	outPlain := map[string]int{} // output (non-reg) name -> decl line
	for i, raw := range lines {
		t := strings.TrimSpace(raw)
		if strings.Contains(t, "reg") {
			if name, ok := regDeclName(t); ok {
				regDecl[name] = true
			}
		} else if strings.Contains(t, "output") {
			t = stripRanges(t)
			for a, e := nextIdent(t, 0); a >= 0; a, e = nextIdent(t, e) {
				if w := t[a:e]; w != "output" && w != "wire" && w != "signed" && w != "input" {
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
			if name, ok := assignTarget(strings.TrimPrefix(t, "assign ")); ok && regDecl[name] {
				out = append(out, Hypothesis{
					Category: diag.CatAssignToReg, Symbol: name,
					Confidence: 0.35, Excerpt: t,
				})
			}
			continue
		}
		if !inAlways {
			continue
		}
		if name, ok := assignTarget(t); ok {
			if declLine, isPlainOut := outPlain[name]; isPlainOut && !regDecl[name] {
				out = append(out, Hypothesis{
					Line: declLine, Category: diag.CatInvalidLValue, Symbol: name,
					Confidence: 0.38, Excerpt: t,
				})
			}
		}
	}
	return out
}

func blindUndeclaredScan(out []Hypothesis, lines []string) []Hypothesis {
	var declared map[string]bool // built on the first edge use
	for i, raw := range lines {
		for j := 0; ; {
			name, end := nextEdgeUse(raw, j)
			if end < 0 {
				break
			}
			j = end
			if declared == nil {
				declared = map[string]bool{}
				for _, n := range declaredNames(lines) {
					declared[n] = true
				}
			}
			if !declared[name] {
				out = append(out, Hypothesis{
					Line: i + 1, Category: diag.CatUndeclaredIdent, Symbol: name,
					Confidence: 0.4, Excerpt: strings.TrimSpace(raw),
				})
			}
		}
	}
	return out
}

// small strconv shims keeping the scanning code terse
func sscanInt(s string, v *int) (int, error) {
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, errNotDigit
		}
		n = n*10 + int(s[i]-'0')
	}
	*v = n
	return 1, nil
}

var errNotDigit = errND{}

type errND struct{}

func (errND) Error() string { return "not a digit" }

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
