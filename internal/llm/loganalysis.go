// Package llm implements the simulated large language model at the centre
// of the reproduction. The paper drives GPT-3.5/GPT-4 through OpenAI APIs;
// offline, we replace the network call with a mechanistic model whose
// behaviour reproduces the causal structure the paper measures:
//
//   - it understands compiler logs only as well as the log dialect allows
//     (loganalysis.go) — richer logs localize errors better;
//   - it fixes an error by selecting and executing a category-keyed repair
//     strategy (repair.go) with a persona-dependent success probability;
//   - with no compiler feedback it falls back to blind visual inspection
//     (blind.go), which only spots visually obvious defect classes;
//   - retrieved RAG guidance raises the success probability of the
//     matching category's strategy, most strongly for the categories the
//     base model is weak at;
//   - failed or hallucinated edits can damage the code, which One-shot
//     prompting cannot recover from but iterative ReAct can.
//
// No fix-rate from the paper is hard-coded anywhere; Table 1's numbers
// emerge from these mechanisms.
package llm

import (
	"strconv"
	"strings"

	"repro/internal/diag"
)

// Hypothesis is the model's belief about one error after reading the
// compiler log: where it is, what it is about, and which class it belongs
// to. Confidence reflects how explicit the log was.
type Hypothesis struct {
	Line     int
	Symbol   string
	Category diag.Category
	// Confidence in [0,1]: how unambiguously the log states the fault.
	Confidence float64
	// Excerpt is the log line the hypothesis came from.
	Excerpt string
}

// quartusCodeToCategory inverts the Quartus persona's error numbering.
var quartusCodeToCategory = map[int]diag.Category{
	10161: diag.CatUndeclaredIdent,
	10232: diag.CatIndexOutOfRange,
	10137: diag.CatInvalidLValue,
	10219: diag.CatAssignToReg,
	10170: diag.CatUnexpectedToken,
	10171: diag.CatUnmatchedBeginEnd,
	10663: diag.CatCStyleSyntax,
	10190: diag.CatMisplacedDirective,
	10028: diag.CatDuplicateDecl,
	10112: diag.CatPortMismatch,
	10110: diag.CatNonConstantExpr,
	10114: diag.CatKeywordAsIdent,
	10120: diag.CatMalformedLiteral,
	10122: diag.CatSensitivityList,
	10125: diag.CatBadConcat,
}

// AnalyzeLog parses a persona's compiler log into hypotheses. The quality
// difference between personas is intrinsic: Quartus logs carry error codes
// and symbols (high confidence), iverilog logs carry line numbers and
// terse phrasing (medium, and zero on "I give up."), Simple logs carry
// nothing and yield no hypotheses at all.
func AnalyzeLog(log string) []Hypothesis {
	var out []Hypothesis
	if strings.Contains(log, "Error (") {
		out = analyzeQuartus(out, log)
	}
	return analyzeIVerilog(out, log)
}

func analyzeQuartus(out []Hypothesis, log string) []Hypothesis {
	for rest := log; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		codeDigits, lineDigits, msg, ok := quartusError(line)
		if !ok {
			continue
		}
		code, _ := strconv.Atoi(codeDigits)
		lineNo, _ := strconv.Atoi(lineDigits)
		cat, ok := quartusCodeToCategory[code]
		if !ok {
			cat = diag.CatUnexpectedToken
		}
		out = append(out, Hypothesis{
			Line:       lineNo,
			Category:   refineSyntaxCategory(cat, msg),
			Symbol:     quotedName(msg),
			Confidence: 0.96,
			Excerpt:    strings.TrimSpace(line),
		})
	}
	return out
}

// refineSyntaxCategory sharpens the generic 10170 bucket using message
// text, the way a reader distinguishes "expected ';'" from other syntax
// complaints.
func refineSyntaxCategory(cat diag.Category, msg string) diag.Category {
	if cat == diag.CatUnmatchedBeginEnd && strings.Contains(msg, "missing 'endmodule'") {
		return diag.CatMissingEndmodule
	}
	if cat != diag.CatUnexpectedToken {
		return cat
	}
	switch {
	case strings.Contains(msg, "expected ';'"):
		return diag.CatMissingSemicolon
	case strings.Contains(msg, "expected a port name"):
		return diag.CatPortMismatch
	case strings.Contains(msg, "outside of any module"),
		strings.Contains(msg, "expected 'module'"),
		strings.Contains(msg, "without a matching 'module'"):
		return diag.CatModuleStructure
	}
	return cat
}

func analyzeIVerilog(out []Hypothesis, log string) []Hypothesis {
	if strings.Contains(log, "I give up.") {
		// The degradation case: the log admits defeat; at most the first
		// flagged line is usable, with low confidence and no category.
		for rest := log; rest != ""; {
			var line string
			line, rest, _ = strings.Cut(rest, "\n")
			lineDigits, _, ok := iverilogLocation(line)
			if !ok {
				continue
			}
			n, _ := strconv.Atoi(lineDigits)
			return append(out, Hypothesis{
				Line: n, Category: diag.CatUnexpectedToken,
				Confidence: 0.25, Excerpt: strings.TrimSpace(line),
			})
		}
		return out
	}
	for rest := log; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		if strings.Contains(line, "Error (") {
			continue // quartus line, handled elsewhere
		}
		lineDigits, msg, ok := iverilogLocation(line)
		if !ok {
			continue
		}
		n, _ := strconv.Atoi(lineDigits)
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
			h.Symbol = quotedName(msg)
		}
		out = append(out, h)
	}
	return out
}
