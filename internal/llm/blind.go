package llm

import (
	"regexp"
	"strings"

	"repro/internal/diag"
	"repro/internal/fixer"
)

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

	// Each per-line pattern runs only on lines holding a literal that
	// every match of it must contain.
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
		if strings.Contains(t, ":0]") {
			for _, m := range declRe.FindAllStringSubmatch(t, -1) {
				var msb int
				if _, err := sscanInt(m[1], &msb); err == nil {
					declaredRanges[m[2]] = msb
				}
			}
		}

		// C idioms are the most visually obvious defects.
		if strings.Contains(t, "++") || strings.Contains(t, "--") ||
			hasOpAssign(t) && compoundAssignRe.MatchString(t) {
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
		if strings.Contains(t, "'") && badLiteralRe.MatchString(t) {
			out = append(out, Hypothesis{
				Line: lineNo, Category: diag.CatMalformedLiteral,
				Confidence: 0.55, Excerpt: t,
			})
		}
		// Reserved word declared as a signal.
		if (strings.HasPrefix(t, "wire") || strings.HasPrefix(t, "reg")) && keywordDeclRe.MatchString(t) {
			out = append(out, Hypothesis{
				Line: lineNo, Category: diag.CatKeywordAsIdent,
				Confidence: 0.5, Excerpt: t,
			})
		}
		// Constant index beyond a [N:0] declaration seen earlier.
		if len(declaredRanges) > 0 && strings.Contains(t, "[") {
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
	out = append(out, blindLValueScan(lines)...)
	// posedge of a signal that is not in any declaration.
	out = append(out, blindUndeclaredScan(lines)...)
	return out
}

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
)

// hasOpAssign reports whether t holds a compound-assignment operator
// ("+=", "-=", "*=", "/=", "&=", "|=", "^="), which every match of
// compoundAssignRe and compoundRe contains.
func hasOpAssign(t string) bool {
	for i := 1; i < len(t); i++ {
		if t[i] == '=' && strings.IndexByte("+-*/&|^", t[i-1]) >= 0 {
			return true
		}
	}
	return false
}

// stripRanges deletes every [...] range from a line.
func stripRanges(t string) string {
	if !strings.Contains(t, "[") {
		return t
	}
	return rangeRe.ReplaceAllString(t, "")
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

func blindLValueScan(lines []string) []Hypothesis {
	var out []Hypothesis
	regDecl := map[string]bool{}
	outPlain := map[string]int{} // output (non-reg) name -> decl line
	for i, raw := range lines {
		t := strings.TrimSpace(raw)
		if strings.Contains(t, "reg") {
			if m := regLineRe.FindStringSubmatch(t); m != nil {
				regDecl[m[1]] = true
			}
		} else if strings.Contains(t, "output") {
			for _, w := range anyIdentRe.FindAllString(stripRanges(t), -1) {
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

func blindUndeclaredScan(lines []string) []Hypothesis {
	var declared map[string]bool // built on the first edge use
	var out []Hypothesis
	for i, raw := range lines {
		if !strings.Contains(raw, "edge") {
			continue
		}
		for _, m := range edgeUseRe.FindAllStringSubmatch(raw, -1) {
			if declared == nil {
				declared = map[string]bool{}
				for _, n := range declaredNames(lines) {
					declared[n] = true
				}
			}
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
