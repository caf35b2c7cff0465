package verilog

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/diag"
)

func kinds(toks []Token) []TokKind {
	out := make([]TokKind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestLexBasicTokens(t *testing.T) {
	toks := Lex("module top (input a); endmodule")
	want := []struct {
		kind TokKind
		text string
	}{
		{TokKeyword, "module"},
		{TokIdent, "top"},
		{TokOp, "("},
		{TokKeyword, "input"},
		{TokIdent, "a"},
		{TokOp, ")"},
		{TokOp, ";"},
		{TokKeyword, "endmodule"},
		{TokEOF, ""},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(want), kinds(toks))
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("token %d = (%v, %q), want (%v, %q)", i, toks[i].Kind, toks[i].Text, w.kind, w.text)
		}
	}
}

func TestLexNumbers(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"42", "42"},
		{"8'hFF", "8'hFF"},
		{"4'b10_10", "4'b10_10"},
		{"3'o7", "3'o7"},
		{"16'd1234", "16'd1234"},
		{"8'sd4", "8'sd4"},
		{"'b1010", "'b1010"},
	}
	for _, c := range cases {
		toks := Lex(c.src)
		if toks[0].Kind != TokNumber {
			t.Errorf("Lex(%q)[0].Kind = %v, want number (text %q)", c.src, toks[0].Kind, toks[0].Text)
			continue
		}
	}
}

func TestLexMalformedLiterals(t *testing.T) {
	cases := []string{"8'hXYZW", "4'd1F", "8'", "8'q77"}
	for _, src := range cases {
		toks := Lex(src)
		found := false
		for _, tok := range toks {
			if tok.Kind == TokError && tok.Cat == diag.CatMalformedLiteral {
				found = true
			}
		}
		if !found {
			t.Errorf("Lex(%q) produced no malformed-literal error: %+v", src, toks)
		}
	}
}

func TestLexComments(t *testing.T) {
	src := `
// line comment
module /* block
comment */ top;
endmodule`
	toks := Lex(src)
	if toks[0].Kind != TokKeyword || toks[0].Text != "module" {
		t.Fatalf("first token = %+v, want 'module'", toks[0])
	}
	if toks[0].Pos.Line != 3 {
		t.Errorf("module token at line %d, want 3", toks[0].Pos.Line)
	}
}

func TestLexDirectiveSwallowsLine(t *testing.T) {
	toks := Lex("`timescale 1ns/1ps\nmodule top; endmodule")
	if toks[0].Kind != TokDirective || toks[0].Text != "timescale" {
		t.Fatalf("first token = %+v, want timescale directive", toks[0])
	}
	if toks[1].Kind != TokKeyword || toks[1].Text != "module" {
		t.Fatalf("second token = %+v, want 'module'", toks[1])
	}
}

func TestLexOperatorsGreedy(t *testing.T) {
	cases := map[string]string{
		"a<=b":  "<=",
		"a<<2":  "<<",
		"a<<<2": "<<<",
		"a==b":  "==",
		"a===b": "===",
		"a&&b":  "&&",
		"i++":   "++",
		"i+=1":  "+=",
	}
	for src, wantOp := range cases {
		toks := Lex(src)
		if len(toks) < 2 || toks[1].Kind != TokOp || toks[1].Text != wantOp {
			t.Errorf("Lex(%q)[1] = %+v, want operator %q", src, toks[1], wantOp)
		}
	}
}

func TestLexStrings(t *testing.T) {
	toks := Lex(`"hello world"`)
	if toks[0].Kind != TokString || toks[0].Text != "hello world" {
		t.Fatalf("string token = %+v", toks[0])
	}
	toks = Lex("\"unterminated\nmodule")
	if toks[0].Kind != TokError {
		t.Fatalf("unterminated string should be an error token, got %+v", toks[0])
	}
}

func TestLexPositionsMonotonic(t *testing.T) {
	src := "module top(input [7:0] a, output [7:0] b);\nassign b = ~a;\nendmodule\n"
	toks := Lex(src)
	prev := diag.Pos{}
	for _, tok := range toks {
		if tok.Kind == TokEOF {
			break
		}
		if tok.Pos.Before(prev) {
			t.Fatalf("token %q at %v comes before previous %v", tok.Text, tok.Pos, prev)
		}
		prev = tok.Pos
	}
}

// TestLexNeverPanics is a property test: the lexer must terminate without
// panicking on arbitrary byte soup and always end with EOF.
func TestLexNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		toks := Lex(string(data))
		return len(toks) > 0 && toks[len(toks)-1].Kind == TokEOF
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestLexRoundTripIdents is a property test: identifier-safe strings lex
// back to the same identifier.
func TestLexRoundTripIdents(t *testing.T) {
	letters := "abcdefghijklmnopqrstuvwxyz_"
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(12)
		var b strings.Builder
		for j := 0; j < n; j++ {
			b.WriteByte(letters[rng.Intn(len(letters))])
		}
		name := b.String()
		if keywords[name] {
			continue
		}
		toks := Lex(name)
		if toks[0].Kind != TokIdent || toks[0].Text != name {
			t.Fatalf("Lex(%q)[0] = %+v, want identifier round-trip", name, toks[0])
		}
	}
}

func TestLexUppercaseBaseLetters(t *testing.T) {
	// The ASCII fast path must keep normalizing base letters: 8'HFF and
	// 8'hFF lex to the same canonical token text.
	for _, src := range []string{"8'HFF", "8'hFF", "4'B1010", "8'O17", "8'D42", "8'SD4"} {
		toks := Lex(src)
		if toks[0].Kind != TokNumber {
			t.Fatalf("Lex(%q)[0] = %+v, want number", src, toks[0])
		}
	}
	if got := Lex("8'HFF")[0].Text; got != "8'hFF" {
		t.Fatalf("base letter not normalized: %q", got)
	}
	// invalid digits still rejected per base
	if toks := Lex("8'b012"); toks[0].Kind != TokError {
		t.Fatalf("8'b012 must be a malformed literal, got %+v", toks[0])
	}
	if toks := Lex("8'dff"); toks[0].Kind != TokError {
		t.Fatalf("8'dff must be a malformed literal, got %+v", toks[0])
	}
	// wildcard digits stay valid where the old table allowed them
	for _, src := range []string{"4'b1?z0", "8'hx_Z?", "8'o1?7"} {
		if toks := Lex(src); toks[0].Kind != TokError && toks[0].Kind != TokNumber {
			t.Fatalf("Lex(%q) = %+v", src, toks[0])
		}
		if toks := Lex(src); toks[0].Kind == TokError {
			t.Fatalf("Lex(%q) rejected wildcard digits: %+v", src, toks[0])
		}
	}
}

// BenchmarkLex measures whole-file tokenization — the cache-miss compile
// path lexes every candidate before anything else runs.
func BenchmarkLex(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&sb, `
module m%d(input clk, input [31:0] a, output reg [31:0] q);
	wire [31:0] t = a ^ 32'hDEAD_BEEF;
	always @(posedge clk)
		q <= t + 8'HFF + q;
endmodule
`, i)
	}
	src := sb.String()
	b.ReportAllocs()
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		Lex(src)
	}
}
