package verilog

import (
	"strings"

	"repro/internal/diag"
)

// LexHasPrefix is Lex with the operator scan it had before the first-byte
// table: every operator in the table tried in turn with strings.HasPrefix.
// Everything else is the production lexer, so a differential against Lex
// isolates the operator dispatch.
func LexHasPrefix(src string) []Token {
	lx := NewLexer(src)
	var toks []Token
	for {
		lx.skipSpaceAndComments()
		var t Token
		if lx.off < len(lx.src) && lexesAsOp(lx.peek()) {
			t = lx.lexOpHasPrefix(lx.pos())
		} else {
			t = lx.Next()
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks
		}
	}
}

// lexesAsOp mirrors Next's dispatch: the bytes it hands to lexOp.
func lexesAsOp(c byte) bool {
	return c != '`' && c != '"' && c != '\'' && !isIdentStart(c) && !isDigit(c)
}

func (lx *Lexer) lexOpHasPrefix(pos diag.Pos) Token {
	rest := lx.src[lx.off:]
	for _, op := range operators {
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
