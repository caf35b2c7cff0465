package inject

import (
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strings"
)

// Hazard mutators perturb *valid* Verilog toward the walker-vs-engine
// divergence space, reusing the same Mutator plumbing the error
// injectors use. Unlike the injectors in inject.go, these are
// validity-preserving: the output must still parse and elaborate (the
// fuzz harness re-validates and skips the rare miss). internal/fuzz
// layers them on top of its generated modules so every campaign also
// explores mutated shapes, not just template instantiations.

// Hazards returns the validity-preserving hazard mutators, in a stable
// order. Category is left zero and Difficulty encodes how often the
// mutator historically produced a divergence-class construct.
func Hazards() []Mutator {
	return []Mutator{
		{Name: "hazard-alias-slice-store", Difficulty: 0.9, Apply: aliasSliceStore},
		{Name: "hazard-blocking-swap", Difficulty: 0.7, Apply: blockingSwap},
		{Name: "hazard-shared-loopvar", Difficulty: 0.8, Apply: sharedLoopVar},
		{Name: "hazard-duplicate-always", Difficulty: 0.6, Apply: duplicateAlways},
		{Name: "hazard-slice-to-indexed", Difficulty: 0.5, Apply: sliceToIndexed},
	}
}

// procAssignRe matches a whole-reg blocking assignment line inside a
// process body: "name = expr;" (not ==, <=, >=, assign, for, decl).
var procAssignRe = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)\s*=[^=]`)

// aliasSliceStore finds a blocking whole-reg store "q = expr;" on a reg
// with a known [msb:0] range and appends "q[h:l] = q;" right after it —
// the copy-on-alias construct of the first shipped engine bug.
func aliasSliceStore(src string, rng *rand.Rand) (string, int, bool) {
	widths := declaredWidths(src)
	lines := strings.Split(src, "\n")
	idx := pickLine(lines, rng, func(t string) bool {
		m := procAssignRe.FindStringSubmatch(t)
		if m == nil || strings.HasPrefix(t, "assign") || strings.HasPrefix(t, "for") ||
			strings.HasPrefix(t, "wire") || strings.HasPrefix(t, "reg") ||
			strings.HasPrefix(t, "integer") || strings.HasPrefix(t, "localparam") ||
			strings.HasPrefix(t, "parameter") || !strings.HasSuffix(t, ";") {
			return false
		}
		msb, ok := widths[m[1]]
		return ok && msb >= 2
	})
	if idx < 0 {
		return src, 0, false
	}
	name := procAssignRe.FindStringSubmatch(strings.TrimSpace(lines[idx]))[1]
	msb := widths[name]
	// Random sub-range shifted off zero so source and destination bits
	// genuinely overlap-and-move.
	lo := 1 + rng.Intn(msb-1)
	hi := lo + rng.Intn(msb-lo)
	indent := lines[idx][:len(lines[idx])-len(strings.TrimLeft(lines[idx], " \t"))]
	store := fmt.Sprintf("%s%s[%d:%d] = %s;", indent, name, hi, lo, name)
	out := append(lines[:idx+1:idx+1], append([]string{store}, lines[idx+1:]...)...)
	return joinLines(out), idx + 2, true
}

// nbaLineRe matches a non-blocking assignment "target <= expr;" where
// target may carry an index or slice.
var nbaLineRe = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*(\[[^\]]+\])?)\s*<=\s*[^;]+;$`)

// blockingSwap flips one non-blocking assignment to blocking (or the
// reverse), perturbing the intra-block ordering the two backends must
// agree on.
func blockingSwap(src string, rng *rand.Rand) (string, int, bool) {
	lines := strings.Split(src, "\n")
	idx := pickLine(lines, rng, func(t string) bool {
		return nbaLineRe.MatchString(t)
	})
	if idx >= 0 && rng.Intn(2) == 0 {
		lines[idx] = strings.Replace(lines[idx], "<=", "=", 1)
		return joinLines(lines), idx + 1, true
	}
	// Reverse direction: promote a procedural blocking store to NBA.
	widths := declaredWidths(src)
	idx = pickLine(lines, rng, func(t string) bool {
		m := procAssignRe.FindStringSubmatch(t)
		if m == nil || strings.HasPrefix(t, "assign") || strings.HasPrefix(t, "for") ||
			!strings.HasSuffix(t, ";") {
			return false
		}
		_, ok := widths[m[1]]
		return ok
	})
	if idx < 0 {
		return src, 0, false
	}
	lines[idx] = strings.Replace(lines[idx], "=", "<=", 1)
	return joinLines(lines), idx + 1, true
}

var forLoopRe = regexp.MustCompile(`for\s*\(\s*([a-zA-Z_][a-zA-Z0-9_]*)\s*=`)
var posedgeRe = regexp.MustCompile(`posedge\s+([a-zA-Z_][a-zA-Z0-9_]*)`)

// sharedLoopVar appends a second same-edge always block that reuses an
// existing loop variable name on a fresh target reg — the per-block
// scoping construct of the second shipped engine bug.
func sharedLoopVar(src string, rng *rand.Rand) (string, int, bool) {
	loopVar := forLoopRe.FindStringSubmatch(src)
	clock := posedgeRe.FindStringSubmatch(src)
	if loopVar == nil || clock == nil || !strings.Contains(src, "integer "+loopVar[1]) {
		return src, 0, false
	}
	widths := declaredWidths(src)
	// Pick any ranged signal as the data source.
	var srcs []string
	for name, msb := range widths {
		if msb >= 2 {
			srcs = append(srcs, name)
		}
	}
	if len(srcs) == 0 {
		return src, 0, false
	}
	sort.Strings(srcs)
	data := srcs[rng.Intn(len(srcs))]
	bound := 2 + rng.Intn(widths[data])
	if bound > widths[data]+1 {
		bound = widths[data] + 1
	}
	i := loopVar[1]
	block := fmt.Sprintf(
		"\treg [%d:0] zz_dup;\n\talways @(posedge %s) begin\n\t\tfor (%s = 0; %s < %d; %s = %s + 1)\n\t\t\tzz_dup[%s] <= %s[%s];\n\tend\n",
		bound-1, clock[1], i, i, bound, i, i, i, data, i)
	idx := strings.LastIndex(src, "endmodule")
	if idx < 0 || strings.Contains(src, "zz_dup") {
		return src, 0, false
	}
	line := strings.Count(src[:idx], "\n") + 1
	return src[:idx] + block + src[idx:], line, true
}

// duplicateAlways duplicates one always block verbatim. The targets
// become multi-driven (warning-level), so both backends must agree on
// block-order semantics: walker fires blocks in declaration order and
// the engine merges its queues the same way.
func duplicateAlways(src string, rng *rand.Rand) (string, int, bool) {
	lines := strings.Split(src, "\n")
	starts := []int{}
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "always") {
			starts = append(starts, i)
		}
	}
	if len(starts) == 0 {
		return src, 0, false
	}
	start := starts[rng.Intn(len(starts))]
	end := alwaysEnd(lines, start)
	if end < 0 {
		return src, 0, false
	}
	block := append([]string{}, lines[start:end+1]...)
	out := append(lines[:end+1:end+1], append(block, lines[end+1:]...)...)
	return joinLines(out), end + 2, true
}

// alwaysEnd finds the last line of the always block starting at start:
// either the matching "end" for its begin, or the first statement line.
func alwaysEnd(lines []string, start int) int {
	depth := 0
	seenBegin := false
	for i := start; i < len(lines); i++ {
		t := strings.TrimSpace(lines[i])
		depth += strings.Count(t, "begin")
		if strings.Count(t, "begin") > 0 {
			seenBegin = true
		}
		if t == "end" || strings.HasPrefix(t, "end ") {
			depth--
			if seenBegin && depth == 0 {
				return i
			}
		}
		if !seenBegin && i > start && strings.HasSuffix(t, ";") {
			return i
		}
	}
	return -1
}

// sliceToIndexed rewrites one constant part-select x[h:l] into the
// equivalent indexed form x[l +: w], steering compilation down the
// dynamic-select path.
func sliceToIndexed(src string, rng *rand.Rand) (string, int, bool) {
	spans := sliceRe.FindAllStringSubmatchIndex(src, -1)
	var usable [][]int
	for _, span := range spans {
		// Skip declaration ranges: they are preceded by '[' at a decl
		// position only when the match starts a "[h:l] name" — the
		// regex requires a leading identifier, so decls never match.
		var hi, lo int
		fmt.Sscanf(src[span[4]:span[5]], "%d", &hi)
		fmt.Sscanf(src[span[6]:span[7]], "%d", &lo)
		if hi >= lo {
			usable = append(usable, span)
		}
	}
	if len(usable) == 0 {
		return src, 0, false
	}
	span := usable[rng.Intn(len(usable))]
	var hi, lo int
	fmt.Sscanf(src[span[4]:span[5]], "%d", &hi)
	fmt.Sscanf(src[span[6]:span[7]], "%d", &lo)
	out := src[:span[4]] + fmt.Sprintf("%d +: %d", lo, hi-lo+1) + src[span[7]:]
	line := strings.Count(src[:span[0]], "\n") + 1
	return out, line, true
}

// declaredWidths maps every "[msb:0] name" declaration to its MSB.
func declaredWidths(src string) map[string]int {
	widths := map[string]int{}
	for _, m := range rangeDeclRe.FindAllStringSubmatch(src, -1) {
		var msb int
		fmt.Sscanf(m[1], "%d", &msb)
		widths[m[2]] = msb
	}
	return widths
}
