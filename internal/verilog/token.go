// Package verilog implements a lexer, AST, and recursive-descent parser for
// the synthesizable Verilog-2001 subset (plus the handful of SystemVerilog
// conveniences — 'int' loop variables, always_ff-free .sv style — that
// VerilogEval-class problems use). It is the compiler frontend both
// "compiler personas" (iverilog-style and Quartus-style) share.
package verilog

import "repro/internal/diag"

// TokKind identifies the lexical class of a token.
type TokKind int

const (
	// TokEOF marks the end of input.
	TokEOF TokKind = iota
	// TokIdent is an identifier.
	TokIdent
	// TokNumber is an integer literal, sized or unsized.
	TokNumber
	// TokString is a double-quoted string literal.
	TokString
	// TokKeyword is a reserved word.
	TokKeyword
	// TokOp is an operator or punctuation.
	TokOp
	// TokDirective is a backtick compiler directive (`timescale, `define).
	TokDirective
	// TokError is a lexical error; the Text holds a description.
	TokError
)

// String names the token kind.
func (k TokKind) String() string {
	switch k {
	case TokEOF:
		return "EOF"
	case TokIdent:
		return "identifier"
	case TokNumber:
		return "number"
	case TokString:
		return "string"
	case TokKeyword:
		return "keyword"
	case TokOp:
		return "operator"
	case TokDirective:
		return "directive"
	case TokError:
		return "lex-error"
	}
	return "unknown"
}

// Token is one lexical unit with its source position.
type Token struct {
	Kind TokKind
	Text string
	Pos  diag.Pos
	// Cat is set only for TokError and classifies the lexical problem.
	Cat diag.Category
}

// Is reports whether the token is the given keyword or operator text.
func (t Token) Is(text string) bool {
	return (t.Kind == TokKeyword || t.Kind == TokOp) && t.Text == text
}

// keywords is the reserved-word set for the supported subset. 'int' and
// 'logic' are included so SV-flavoured sources lex cleanly; the parser
// decides whether they are legal in context.
var keywords = map[string]bool{
	"module": true, "endmodule": true, "input": true, "output": true,
	"inout": true, "wire": true, "reg": true, "logic": true, "integer": true,
	"int": true, "genvar": true, "parameter": true, "localparam": true,
	"assign": true, "always": true, "initial": true, "begin": true,
	"end": true, "if": true, "else": true, "case": true, "casez": true,
	"casex": true, "endcase": true, "default": true, "for": true,
	"while": true, "posedge": true, "negedge": true, "or": true,
	"signed": true, "function": true, "endfunction": true, "generate": true,
	"endgenerate": true, "repeat": true, "forever": true, "wait": true,
	"task": true, "endtask": true,
}

// multi-character operators, longest first so the lexer can greedy-match.
var operators = []string{
	"<<<", ">>>", "===", "!==",
	"<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "~&", "~|", "~^", "^~",
	"++", "--", "+=", "-=", "*=", "/=", "&=", "|=", "^=", "->", "+:", "-:",
	"+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
	"(", ")", "[", "]", "{", "}", ";", ",", ":", ".", "?", "@", "#", "$",
}

// cStyleOps are operators that exist in C/C++ but not in Verilog-2001
// expressions. The lexer emits them as ordinary TokOp; the parser flags
// them with diag.CatCStyleSyntax, reproducing the paper's observation that
// LLMs import C idioms into Verilog.
var cStyleOps = map[string]bool{
	"++": true, "--": true, "+=": true, "-=": true, "*=": true, "/=": true,
	"&=": true, "|=": true, "^=": true,
}

// IsCStyleOp reports whether op is a C-only operator.
func IsCStyleOp(op string) bool { return cStyleOps[op] }
