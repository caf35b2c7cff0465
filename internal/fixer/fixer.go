// Package fixer is the paper's "simple rule-based syntax fixer": a
// deterministic pre-pass applied to every LLM-generated Verilog sample
// before compilation (§4 Setup). It repairs the trivial, mechanical defects
// LLM output tends to carry — markdown fences, chat prose around the code,
// misplaced `timescale directives, duplicated endmodule keywords, smart
// quotes — so the agent spends its iterations on real syntax errors.
package fixer

import (
	"slices"
	"strings"
)

// Result reports what the fixer did.
type Result struct {
	// Code is the cleaned source.
	Code string
	// Applied lists the names of the rules that changed the input, in
	// application order.
	Applied []string
}

// Rule is one deterministic rewrite. Apply returns the (possibly
// unchanged) source and whether it modified anything.
type Rule struct {
	Name  string
	Apply func(src string) (string, bool)
}

// rules is the standard rule set, in application order. Fix ranges over
// it; Rules hands out copies.
var rules = []Rule{
	{Name: "extract-markdown-block", Apply: extractMarkdownBlock},
	{Name: "strip-chat-prose", Apply: stripChatProse},
	{Name: "normalize-smart-quotes", Apply: normalizeSmartQuotes},
	{Name: "hoist-timescale", Apply: hoistTimescale},
	{Name: "drop-duplicate-endmodule", Apply: dropDuplicateEndmodule},
	{Name: "trim-trailing-garbage", Apply: trimTrailingGarbage},
}

// Rules returns the standard rule set, in application order.
func Rules() []Rule { return slices.Clone(rules) }

// Fix applies every rule once, in order. A source no rule changes costs
// no allocation.
func Fix(src string) Result {
	res := Result{Code: src}
	for _, r := range rules {
		next, changed := r.Apply(res.Code)
		if changed {
			res.Code = next
			res.Applied = append(res.Applied, r.Name)
		}
	}
	return res
}

// extractMarkdownBlock pulls the contents of the first fenced code block
// when the input looks like a chat answer (```verilog ... ```).
func extractMarkdownBlock(src string) (string, bool) {
	if !strings.Contains(src, "```") {
		return src, false
	}
	lines := strings.Split(src, "\n")
	var out []string
	in := false
	found := false
	for _, line := range lines {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			if !in {
				in = true
				found = true
				continue
			}
			break // end of the first block
		}
		if in {
			out = append(out, line)
		}
	}
	if !found || len(out) == 0 {
		// Unbalanced fence: just delete fence lines.
		var kept []string
		for _, line := range lines {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				continue
			}
			kept = append(kept, line)
		}
		return strings.Join(kept, "\n"), true
	}
	return strings.Join(out, "\n"), true
}

// stripChatProse deletes leading lines before the first structural Verilog
// line (module/directive/comment), which removes "Sure! Here is the
// corrected code:" style prefixes. The kept lines are a suffix of src,
// so the rule slices instead of splitting and never allocates.
func stripChatProse(src string) (string, bool) {
	sawProse := false
	for off := 0; off <= len(src); {
		n := strings.IndexByte(src[off:], '\n')
		if n < 0 {
			n = len(src) - off
		}
		if t := strings.TrimSpace(src[off : off+n]); t != "" {
			if looksLikeVerilogStart(t) {
				// Only blank lines before the first code line are not
				// prose; reporting a change here would log the rule in
				// Transcript.FixerRules for inputs it did not clean.
				if !sawProse {
					return src, false
				}
				return src[off:], true
			}
			// A non-code line before any code: candidate prose. Keep
			// scanning; if code follows, everything before it goes.
			sawProse = true
		}
		off += n + 1
	}
	// No code found at all: leave untouched and let the compiler
	// complain.
	return src, false
}

func looksLikeVerilogStart(t string) bool {
	return strings.HasPrefix(t, "module") ||
		strings.HasPrefix(t, "`") ||
		strings.HasPrefix(t, "//") ||
		strings.HasPrefix(t, "/*")
}

// smartQuotes maps typographic quotes to their ASCII forms.
var smartQuotes = strings.NewReplacer(
	"‘", "'", "’", "'",
	"“", `"`, "”", `"`,
)

// normalizeSmartQuotes replaces typographic quotes that chat output
// sometimes carries into string or literal positions. Every smart quote's
// UTF-8 form starts with 0xE2, so a source without that byte is returned
// as is, without running the replacer.
func normalizeSmartQuotes(src string) (string, bool) {
	if strings.IndexByte(src, 0xE2) < 0 {
		return src, false
	}
	replaced := smartQuotes.Replace(src)
	return replaced, replaced != src
}

// hoistTimescale moves `timescale directives that appear inside a module
// body to the top of the file. A misplaced timescale is the paper's
// example of what the rule-based fixer handles. A source whose
// directives are all outside module bodies is returned as is, without
// allocating.
func hoistTimescale(src string) (string, bool) {
	if !strings.Contains(src, "`timescale") {
		return src, false
	}
	misplaced := false
	scanTimescale(src, func(_ string, hoist bool) { misplaced = misplaced || hoist })
	if !misplaced {
		return src, false
	}
	var directives, rest []string
	scanTimescale(src, func(line string, hoist bool) {
		if hoist {
			directives = append(directives, line)
		} else {
			rest = append(rest, line)
		}
	})
	return strings.Join(append(directives, rest...), "\n"), true
}

// scanTimescale calls visit on every line of src, in order, with whether
// the line is a `timescale directive inside a module body.
func scanTimescale(src string, visit func(line string, hoist bool)) {
	inModule := false
	for off := 0; off <= len(src); {
		n := strings.IndexByte(src[off:], '\n')
		if n < 0 {
			n = len(src) - off
		}
		line := src[off : off+n]
		t := strings.TrimSpace(line)
		if strings.HasPrefix(t, "module") {
			inModule = true
		}
		hoist := inModule && strings.HasPrefix(t, "`timescale")
		visit(line, hoist)
		if !hoist && strings.HasPrefix(t, "endmodule") {
			inModule = false
		}
		off += n + 1
	}
}

// dropDuplicateEndmodule removes endmodule keywords beyond the balance
// point (one endmodule per module). The keywords are counted as whole
// words: substring counting would see a spurious "module" inside
// identifiers like `top_module` (ubiquitous in VerilogEval sources) and
// inflate the open count, so stacked duplicate `endmodule`s would never be
// removed; and `module` does not count inside `endmodule`.
func dropDuplicateEndmodule(src string) (string, bool) {
	closes := WordCount(src, "endmodule")
	opens := WordCount(src, "module")
	if closes <= opens || closes <= 1 {
		return src, false
	}
	// Delete only directly stacked duplicates at the bottom of the file
	// ("endmodule\nendmodule"), the shape LLM output actually produces.
	// An interior surplus endmodule is a real structural error the agent
	// should get to see.
	lines := strings.Split(src, "\n")
	surplus := closes - opens
	changed := false
	for i := len(lines) - 1; i >= 1 && surplus > 0; i-- {
		t := strings.TrimSpace(lines[i])
		if t == "" {
			continue
		}
		if t != "endmodule" {
			break
		}
		// previous non-blank line must also be a lone endmodule
		j := i - 1
		for j >= 0 && strings.TrimSpace(lines[j]) == "" {
			j--
		}
		if j < 0 || strings.TrimSpace(lines[j]) != "endmodule" {
			break
		}
		lines = append(lines[:i], lines[i+1:]...)
		surplus--
		changed = true
		i = j + 1 // re-examine from the surviving endmodule
	}
	if !changed {
		return src, false
	}
	return strings.Join(lines, "\n"), true
}

// trimTrailingGarbage removes prose after the final endmodule.
func trimTrailingGarbage(src string) (string, bool) {
	idx := strings.LastIndex(src, "endmodule")
	if idx < 0 {
		return src, false
	}
	end := idx + len("endmodule")
	tail := src[end:]
	if strings.TrimSpace(tail) == "" {
		return src, false
	}
	return src[:end] + "\n", true
}

// WordCount counts the occurrences of word in s that stand as whole
// words: not preceded or followed by an ASCII letter, digit or '_'. That
// is the word set of regexp's \b, so for a word of word characters that
// cannot overlap itself (begin, end, module, endmodule, ...) the count
// equals len(regexp.MustCompile(`\b`+word+`\b`).FindAllString(s, -1)),
// without compiling a pattern or allocating.
func WordCount(s, word string) int {
	count := 0
	idx := 0
	for {
		j := strings.Index(s[idx:], word)
		if j < 0 {
			return count
		}
		k := idx + j
		before := k == 0 || !isWordChar(s[k-1])
		after := k+len(word) >= len(s) || !isWordChar(s[k+len(word)])
		if before && after {
			count++
		}
		idx = k + len(word)
	}
}

func isWordChar(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}
