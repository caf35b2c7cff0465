package llm

import "strings"

// The model reads a candidate and its compiler log with the hand-written
// matchers below, one per pattern of the earlier regexp read (each
// function's comment quotes its pattern; textscan_test.go keeps the
// regexps as the oracle). They keep RE2's semantics exactly:
//
//   - \b is a boundary of the ASCII word set [0-9A-Za-z_], and a byte of
//     a multi-byte rune is never a word byte;
//   - \s is [\t\n\f\r ], without \v;
//   - a FindAll walk is leftmost-first and non-overlapping: the next
//     search starts where the last match ended.
//
// Where a pattern's greedy parts cannot give anything back (a digit run
// followed by ':', an identifier followed by '['), the matcher takes the
// longest run and fails at once instead of backtracking.

func isWordByte(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isSpaceByte(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\f' || c == '\r'
}

// wordEnd returns the end of the [0-9A-Za-z_] run starting at i.
func wordEnd(s string, i int) int {
	for i < len(s) && isWordByte(s[i]) {
		i++
	}
	return i
}

// digitEnd returns the end of the [0-9] run starting at i.
func digitEnd(s string, i int) int {
	for i < len(s) && isDigit(s[i]) {
		i++
	}
	return i
}

// spaceEnd returns the end of the \s run starting at i.
func spaceEnd(s string, i int) int {
	for i < len(s) && isSpaceByte(s[i]) {
		i++
	}
	return i
}

// rangeEnd matches `\[[^\]]*\]` at i and returns the index after the
// closing bracket, or -1.
func rangeEnd(s string, i int) int {
	if i >= len(s) || s[i] != '[' {
		return -1
	}
	j := strings.IndexByte(s[i+1:], ']')
	if j < 0 {
		return -1
	}
	return i + j + 2
}

// wordBoundary reports whether \b holds at position i of s.
func wordBoundary(s string, i int) bool {
	before := i > 0 && isWordByte(s[i-1])
	after := i < len(s) && isWordByte(s[i])
	return before != after
}

// nextIdent finds the next match of `[A-Za-z_][A-Za-z0-9_]*` at or after
// i, or returns -1.
func nextIdent(s string, i int) (start, end int) {
	for ; i < len(s); i++ {
		if isIdentStart(s[i]) {
			return i, wordEnd(s, i)
		}
	}
	return -1, -1
}

// stripRanges deletes every match of `\[[^\]]*\]` from a line.
func stripRanges(t string) string {
	i := strings.IndexByte(t, '[')
	if i < 0 {
		return t
	}
	var b strings.Builder
	last := 0
	for i >= 0 {
		e := rangeEnd(t, i)
		if e < 0 {
			break
		}
		b.WriteString(t[last:i])
		last = e
		if i = strings.IndexByte(t[e:], '['); i >= 0 {
			i += e
		}
	}
	if last == 0 {
		return t
	}
	b.WriteString(t[last:])
	return b.String()
}

// ---------- the blind read ----------

// nextDeclRange finds the next match of `\[(\d+):0\]\s*([A-Za-z_][A-Za-z0-9_]*)`
// at or after i: the MSB digits, the declared name, and the match end.
func nextDeclRange(t string, i int) (msb, name string, end int) {
	for {
		j := strings.IndexByte(t[i:], '[')
		if j < 0 {
			return "", "", -1
		}
		p := i + j
		i = p + 1
		d := digitEnd(t, p+1)
		if d == p+1 || !strings.HasPrefix(t[d:], ":0]") {
			continue
		}
		a := spaceEnd(t, d+3)
		if a < len(t) && isIdentStart(t[a]) {
			e := wordEnd(t, a)
			return t[p+1 : d], t[a:e], e
		}
	}
}

// nextConstIndex finds the next match of `([A-Za-z_][A-Za-z0-9_]*)\[(\d+)\]`
// at or after i: the indexed name, the index digits, and the match end.
func nextConstIndex(t string, i int) (name, index string, end int) {
	for i < len(t) {
		if !isIdentStart(t[i]) {
			i++
			continue
		}
		// A later start inside this word ends at the same '[', so a
		// failure here is a failure for the whole word.
		e := wordEnd(t, i)
		if e < len(t) && t[e] == '[' {
			if d := digitEnd(t, e+1); d > e+1 && d < len(t) && t[d] == ']' {
				return t[i:e], t[e+1 : d], d + 1
			}
		}
		i = e
	}
	return "", "", -1
}

// hasCompoundAssign reports a match of
// `[A-Za-z_][A-Za-z0-9_]*\s*[+\-*/&|^]=[^=]`.
func hasCompoundAssign(t string) bool {
	for k := 0; k+2 < len(t); k++ {
		if t[k+1] != '=' || t[k+2] == '=' || strings.IndexByte("+-*/&|^", t[k]) < 0 {
			continue
		}
		j := k
		for j > 0 && isSpaceByte(t[j-1]) {
			j--
		}
		for w := j; w > 0 && isWordByte(t[w-1]); w-- {
			if isIdentStart(t[w-1]) {
				return true
			}
		}
	}
	return false
}

// hasBadLiteral reports a match of
// `\d+'b[01_]*[2-9a-fA-F]|\d+'h[0-9a-fA-F_]*[g-zG-Z]`.
func hasBadLiteral(t string) bool {
	for i := 1; i+1 < len(t); i++ {
		if t[i] != '\'' || !isDigit(t[i-1]) {
			continue
		}
		j := i + 2
		switch t[i+1] {
		case 'b':
			for j < len(t) && (t[j] == '0' || t[j] == '1' || t[j] == '_') {
				j++
			}
			if j < len(t) && (t[j] >= '2' && t[j] <= '9' || isHexLetter(t[j])) {
				return true
			}
		case 'h':
			for j < len(t) && (isDigit(t[j]) || isHexLetter(t[j]) || t[j] == '_') {
				j++
			}
			if j < len(t) && t[j]|0x20 >= 'g' && t[j]|0x20 <= 'z' {
				return true
			}
		}
	}
	return false
}

func isHexLetter(c byte) bool { return c|0x20 >= 'a' && c|0x20 <= 'f' }

// isKeywordDecl reports a match of
// `^\s*(wire|reg)\s+(case|begin|end|wire|reg|module)\s*;`.
func isKeywordDecl(t string) bool {
	i := spaceEnd(t, 0)
	switch {
	case strings.HasPrefix(t[i:], "wire"):
		i += len("wire")
	case strings.HasPrefix(t[i:], "reg"):
		i += len("reg")
	default:
		return false
	}
	j := spaceEnd(t, i)
	if j == i {
		return false
	}
	// No keyword is a prefix of another, so at most one can match.
	for _, kw := range [...]string{"case", "begin", "end", "wire", "reg", "module"} {
		if strings.HasPrefix(t[j:], kw) {
			k := spaceEnd(t, j+len(kw))
			return k < len(t) && t[k] == ';'
		}
	}
	return false
}

// regDeclName returns the capture of the first match of
// `\breg\b[^;]*?\b([A-Za-z_][A-Za-z0-9_]*)`: the first word after a
// whole-word "reg" and before the next ';'.
func regDeclName(t string) (string, bool) {
	for i := 0; ; {
		j := strings.Index(t[i:], "reg")
		if j < 0 {
			return "", false
		}
		p := i + j
		i = p + 1
		if !wordBoundary(t, p) || !wordBoundary(t, p+3) {
			continue
		}
		for k := p + 3; k < len(t) && t[k] != ';'; k++ {
			if isIdentStart(t[k]) && !isWordByte(t[k-1]) {
				return t[k:wordEnd(t, k)], true
			}
		}
	}
}

// assignTarget returns the capture of
// `^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(\[[^\]]*\]\s*)?<?=[^=]`: the signal a
// line starts by assigning.
func assignTarget(t string) (string, bool) {
	i := spaceEnd(t, 0)
	if i >= len(t) || !isIdentStart(t[i]) {
		return "", false
	}
	e := wordEnd(t, i)
	j := spaceEnd(t, e)
	if j < len(t) && t[j] == '[' {
		if j = rangeEnd(t, j); j < 0 {
			return "", false
		}
		j = spaceEnd(t, j)
	}
	if j < len(t) && t[j] == '<' {
		j++
	}
	if j+1 < len(t) && t[j] == '=' && t[j+1] != '=' {
		return t[i:e], true
	}
	return "", false
}

// nextEdgeUse finds the next match of
// `(posedge|negedge)\s+([A-Za-z_][A-Za-z0-9_]*)` at or after i: the
// signal and the match end.
func nextEdgeUse(s string, i int) (name string, end int) {
	for k := i; ; {
		j := strings.Index(s[k:], "edge")
		if j < 0 {
			return "", -1
		}
		p := k + j // "edge" of a match starting at p-3
		k = p + 1
		if p-3 < i || s[p-3:p] != "pos" && s[p-3:p] != "neg" {
			continue
		}
		if a := spaceEnd(s, p+4); a > p+4 && a < len(s) && isIdentStart(s[a]) {
			e := wordEnd(s, a)
			return s[a:e], e
		}
	}
}

// ---------- the log read ----------

func isQuote(c byte) bool { return c == '"' || c == '\'' || c == '`' }

// quotedName returns the capture of the first match of
// ["'`]([A-Za-z_][A-Za-z0-9_]*)["'`], or "".
func quotedName(s string) string {
	for i := 0; i+1 < len(s); i++ {
		if !isQuote(s[i]) || !isIdentStart(s[i+1]) {
			continue
		}
		if e := wordEnd(s, i+1); e < len(s) && isQuote(s[e]) {
			return s[i+1 : e]
		}
	}
	return ""
}

// quartusError matches
// `Error \((\d+)\): Verilog HDL error at [^(]*\((\d+)\): ([^.]+)`
// in a log line: the error code, the source line and the message.
func quartusError(line string) (code, lineNo, msg string, ok bool) {
	const head, at = "Error (", "): Verilog HDL error at "
	for i := 0; ; {
		j := strings.Index(line[i:], head)
		if j < 0 {
			return "", "", "", false
		}
		c := i + j + len(head)
		i += j + 1
		d := digitEnd(line, c)
		if d == c || !strings.HasPrefix(line[d:], at) {
			continue
		}
		k := strings.IndexByte(line[d+len(at):], '(')
		if k < 0 {
			continue
		}
		n := d + len(at) + k + 1
		e := digitEnd(line, n)
		if e == n || !strings.HasPrefix(line[e:], "): ") {
			continue
		}
		m := e + len("): ")
		end := strings.IndexByte(line[m:], '.')
		if end < 0 {
			end = len(line) - m
		}
		if end == 0 {
			continue
		}
		return line[c:d], line[n:e], line[m : m+end], true
	}
}

// iverilogLocation matches `^([^:\s]+):(\d+): (?:error: )?(.*)$` against
// a log line (which holds no '\n'): the source line and the message.
func iverilogLocation(line string) (lineNo, msg string, ok bool) {
	c := 0
	for c < len(line) && line[c] != ':' && !isSpaceByte(line[c]) {
		c++
	}
	if c == 0 || c == len(line) || line[c] != ':' {
		return "", "", false
	}
	d := digitEnd(line, c+1)
	if d == c+1 || !strings.HasPrefix(line[d:], ": ") {
		return "", "", false
	}
	return line[c+1 : d], strings.TrimPrefix(line[d+2:], "error: "), true
}

// ---------- per-symbol rewrites ----------

// The strategies' patterns built around a symbol the log named. A
// symbol comes from a log or a blind hypothesis and holds no \s byte,
// so a \s run in front of it never has to give a byte back.

// replaceMatches rewrites every leftmost, non-overlapping match in s of
// a pattern that starts with the literal head. match(p) tests for a match
// whose head is at p and returns the span [from, to) to replace with
// repl and the match end, or end < 0. It reports whether anything
// matched.
func replaceMatches(s, head, repl string, match func(p int) (from, to, end int)) (string, bool) {
	var b strings.Builder
	last := 0
	for i := 0; ; {
		j := strings.Index(s[i:], head)
		if j < 0 {
			break
		}
		from, to, end := match(i + j)
		if end < 0 {
			i += j + 1
			continue
		}
		b.WriteString(s[last:from])
		b.WriteString(repl)
		last, i = to, end
	}
	if last == 0 {
		return s, false
	}
	b.WriteString(s[last:])
	return b.String(), true
}

// replaceWord returns s with every match of `\b`+QuoteMeta(old)+`\b`
// replaced by repl. old is not empty.
func replaceWord(s, old, repl string) string {
	out, _ := replaceMatches(s, old, repl, func(p int) (int, int, int) {
		if e := p + len(old); wordBoundary(s, p) && wordBoundary(s, e) {
			return p, e, e
		}
		return 0, 0, -1
	})
	return out
}

// hasEdgeUse reports a match of `(posedge|negedge)\s+`+QuoteMeta(sym)+`\b`.
func hasEdgeUse(s, sym string) bool {
	for i := 0; ; {
		j := strings.Index(s[i:], "edge")
		if j < 0 {
			return false
		}
		p := i + j
		i = p + 1
		if p < 3 || s[p-3:p] != "pos" && s[p-3:p] != "neg" {
			continue
		}
		a := spaceEnd(s, p+4)
		if a > p+4 && strings.HasPrefix(s[a:], sym) && wordBoundary(s, a+len(sym)) {
			return true
		}
	}
}

// hasAssignTo reports a match of QuoteMeta(sym)+`\s*(<=|=)[^=]`.
func hasAssignTo(s, sym string) bool {
	for i := 0; ; {
		j := strings.Index(s[i:], sym)
		if j < 0 {
			return false
		}
		p := i + j
		i = p + 1
		k := spaceEnd(s, p+len(sym))
		if strings.HasPrefix(s[k:], "<=") && k+2 < len(s) && s[k+2] != '=' ||
			k+1 < len(s) && s[k] == '=' && s[k+1] != '=' {
			return true
		}
	}
}

// declTail matches `\s+(?:\[[^\]]+\]\s*)?`+QuoteMeta(sym) at i, followed
// by `\s*;` when semi is set and by `\b` otherwise. It returns where sym
// starts and where the match ends, or -1s; the range is tried first, as
// the greedy '?' does.
func declTail(s string, i int, sym string, semi bool) (at, end int) {
	j := spaceEnd(s, i)
	if j == i {
		return -1, -1
	}
	if j < len(s) && s[j] == '[' {
		if k := strings.IndexByte(s[j+1:], ']'); k > 0 {
			a := spaceEnd(s, j+k+2)
			if e := symTail(s, a, sym, semi); e >= 0 {
				return a, e
			}
		}
	}
	if e := symTail(s, j, sym, semi); e >= 0 {
		return j, e
	}
	return -1, -1
}

func symTail(s string, a int, sym string, semi bool) int {
	if !strings.HasPrefix(s[a:], sym) {
		return -1
	}
	e := a + len(sym)
	if !semi {
		if wordBoundary(s, e) {
			return e
		}
		return -1
	}
	if e = spaceEnd(s, e); e < len(s) && s[e] == ';' {
		return e + 1
	}
	return -1
}

// outputDecl finds the first match of
// `output(\s+(?:\[[^\]]+\]\s*)?)`+QuoteMeta(sym)+`\b`: its start, where
// sym starts, and its end, or -1s.
func outputDecl(s, sym string) (start, at, end int) {
	for i := 0; ; {
		j := strings.Index(s[i:], "output")
		if j < 0 {
			return -1, -1, -1
		}
		p := i + j
		i = p + 1
		if at, end := declTail(s, p+len("output"), sym, false); at >= 0 {
			return p, at, end
		}
	}
}

// retypeDecl replaces the keyword in every match of
// `\b`+from+`(\s+(?:\[[^\]]+\]\s*)?`+QuoteMeta(sym)+`\s*;)` by to, and
// reports whether there was one.
func retypeDecl(s, from, to, sym string) (string, bool) {
	return replaceMatches(s, from, to, func(p int) (int, int, int) {
		if !wordBoundary(s, p) {
			return 0, 0, -1
		}
		_, end := declTail(s, p+len(from), sym, true)
		return p, p + len(from), end
	})
}

// dropOutputReg rewrites every match of
// `output\s+reg(\s+(?:\[[^\]]+\]\s*)?`+QuoteMeta(sym)+`\b)` to "output"
// followed by the group, and reports whether there was one.
func dropOutputReg(s, sym string) (string, bool) {
	return replaceMatches(s, "output", "", func(p int) (int, int, int) {
		o := p + len("output")
		r := spaceEnd(s, o)
		if r == o || !strings.HasPrefix(s[r:], "reg") {
			return 0, 0, -1
		}
		_, end := declTail(s, r+len("reg"), sym, false)
		return o, r + len("reg"), end
	})
}
