package verilog

import (
	"strings"

	"repro/internal/diag"
)

// Lexer turns Verilog source into tokens. It never fails hard: lexical
// problems become TokError tokens carrying a diagnostic category, so the
// parser and the compiler personas can report them the way a real compiler
// would.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peekAt(n int) byte {
	if lx.off+n >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+n]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) pos() diag.Pos { return diag.Pos{Line: lx.line, Col: lx.col} }

func (lx *Lexer) skipSpaceAndComments() {
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peekAt(1) == '/':
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peekAt(1) == '*':
			lx.advance()
			lx.advance()
			for lx.off < len(lx.src) {
				if lx.peek() == '*' && lx.peekAt(1) == '/' {
					lx.advance()
					lx.advance()
					break
				}
				lx.advance()
			}
		default:
			return
		}
	}
}

// Next returns the next token.
func (lx *Lexer) Next() Token {
	lx.skipSpaceAndComments()
	pos := lx.pos()
	if lx.off >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: pos}
	}
	c := lx.peek()
	switch {
	case c == '`':
		return lx.lexDirective(pos)
	case c == '"':
		return lx.lexString(pos)
	case isIdentStart(c):
		return lx.lexIdent(pos)
	case isDigit(c):
		return lx.lexNumber(pos)
	case c == '\'':
		// unsized based literal like 'b1010 or '0
		return lx.lexBasedLiteral(pos, "")
	default:
		return lx.lexOp(pos)
	}
}

func (lx *Lexer) lexDirective(pos diag.Pos) Token {
	lx.advance() // consume `
	start := lx.off
	for lx.off < len(lx.src) && isIdentChar(lx.peek()) {
		lx.advance()
	}
	name := lx.src[start:lx.off]
	// Directives swallow the rest of their line: `timescale 1ns/1ps etc.
	for lx.off < len(lx.src) && lx.peek() != '\n' {
		lx.advance()
	}
	return Token{Kind: TokDirective, Text: name, Pos: pos}
}

func (lx *Lexer) lexString(pos diag.Pos) Token {
	lx.advance() // consume "
	start := lx.off
	for lx.off < len(lx.src) && lx.peek() != '"' && lx.peek() != '\n' {
		if lx.peek() == '\\' {
			lx.advance()
		}
		if lx.off < len(lx.src) {
			lx.advance()
		}
	}
	text := lx.src[start:lx.off]
	if lx.off < len(lx.src) && lx.peek() == '"' {
		lx.advance()
		return Token{Kind: TokString, Text: text, Pos: pos}
	}
	return Token{Kind: TokError, Text: "unterminated string", Pos: pos, Cat: diag.CatUnexpectedToken}
}

func (lx *Lexer) lexIdent(pos diag.Pos) Token {
	start := lx.off
	for lx.off < len(lx.src) && isIdentChar(lx.peek()) {
		lx.advance()
	}
	text := lx.src[start:lx.off]
	if keywords[text] {
		return Token{Kind: TokKeyword, Text: text, Pos: pos}
	}
	return Token{Kind: TokIdent, Text: text, Pos: pos}
}

// lexNumber handles plain decimals (42), sized based literals (8'hFF,
// 4'b10_10) and malformed variants, which become TokError with
// CatMalformedLiteral.
func (lx *Lexer) lexNumber(pos diag.Pos) Token {
	start := lx.off
	for lx.off < len(lx.src) && (isDigit(lx.peek()) || lx.peek() == '_') {
		lx.advance()
	}
	sizeText := lx.src[start:lx.off]
	if lx.peek() == '\'' {
		return lx.lexBasedLiteral(pos, sizeText)
	}
	return Token{Kind: TokNumber, Text: sizeText, Pos: pos}
}

// lexBasedLiteral lexes from the quote of a based literal; sizeText is
// the size just lexed before it ("" when unsized). The token text is the
// canonical form size'<lowercase base><digits>, without a signed
// marker: the source's own bytes when it already spells the literal so
// (8'hFF), a new string only when it does not (8'HFF, 8'sd4).
func (lx *Lexer) lexBasedLiteral(pos diag.Pos, sizeText string) Token {
	start := lx.off - len(sizeText)
	lx.advance() // consume '
	if lx.off >= len(lx.src) {
		return Token{Kind: TokError, Text: "truncated based literal", Pos: pos, Cat: diag.CatMalformedLiteral}
	}
	base := lx.advance()
	signed := base == 's' || base == 'S'
	if signed { // signed marker: 8'sd4
		if lx.off >= len(lx.src) {
			return Token{Kind: TokError, Text: "truncated based literal", Pos: pos, Cat: diag.CatMalformedLiteral}
		}
		base = lx.advance()
	}
	baseLower := lowerASCII(base)
	if baseLower != 'b' && baseLower != 'o' && baseLower != 'd' && baseLower != 'h' {
		return Token{
			Kind: TokError,
			Text: "invalid base '" + string(base) + "' in literal",
			Pos:  pos, Cat: diag.CatMalformedLiteral,
		}
	}
	digStart := lx.off
	for lx.off < len(lx.src) && (isIdentChar(lx.peek()) || lx.peek() == '?') {
		lx.advance()
	}
	digits := lx.src[digStart:lx.off]
	if digits == "" {
		return Token{Kind: TokError, Text: "based literal has no digits", Pos: pos, Cat: diag.CatMalformedLiteral}
	}
	for i := 0; i < len(digits); i++ {
		if !validBaseDigit(baseLower, digits[i]) {
			return Token{
				Kind: TokError,
				Text: "digit '" + string(digits[i]) + "' is invalid for base '" + string(baseLower) + "'",
				Pos:  pos, Cat: diag.CatMalformedLiteral,
			}
		}
	}
	if !signed && base == baseLower {
		return Token{Kind: TokNumber, Text: lx.src[start:lx.off], Pos: pos}
	}
	return Token{Kind: TokNumber, Text: sizeText + "'" + string(baseLower) + digits, Pos: pos}
}

// lowerASCII lowercases a single ASCII letter. Verilog source is ASCII;
// this avoids the unicode table lookup on the literal-heavy lexing path.
func lowerASCII(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}

// validBaseDigit reports whether c may appear in a literal of the given
// (lowercased) base, replacing the per-digit substring scan.
func validBaseDigit(base, c byte) bool {
	if c == '_' {
		return true
	}
	wild := c == 'x' || c == 'z' || c == 'X' || c == 'Z' || c == '?'
	switch base {
	case 'b':
		return c == '0' || c == '1' || wild
	case 'o':
		return (c >= '0' && c <= '7') || wild
	case 'd':
		return c >= '0' && c <= '9'
	case 'h':
		return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') || wild
	}
	return false
}

// opsByFirst lists, for each byte, the operators that start with it, in
// the operators table's longest-first order, so lexOp tries only the
// few candidates that can match instead of the whole table.
var opsByFirst = func() (t [256][]string) {
	for _, op := range operators {
		t[op[0]] = append(t[op[0]], op)
	}
	return t
}()

func (lx *Lexer) lexOp(pos diag.Pos) Token {
	rest := lx.src[lx.off:]
	for _, op := range opsByFirst[rest[0]] {
		if strings.HasPrefix(rest, op) {
			for range op {
				lx.advance()
			}
			return Token{Kind: TokOp, Text: op, Pos: pos}
		}
	}
	c := lx.advance()
	return Token{
		Kind: TokError,
		Text: "unexpected character '" + string(c) + "'",
		Pos:  pos, Cat: diag.CatUnexpectedToken,
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '\\' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || isDigit(c) || c == '$'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
