package verilog

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/diag"
)

func mustParse(t *testing.T, src string) *SourceFile {
	t.Helper()
	file, diags := Parse(src)
	if diags.HasErrors() {
		t.Fatalf("unexpected parse errors: %s\nsource:\n%s", diags.Summary(), src)
	}
	return file
}

func parseErrors(t *testing.T, src string) diag.List {
	t.Helper()
	_, diags := Parse(src)
	if !diags.HasErrors() {
		t.Fatalf("expected parse errors, got none\nsource:\n%s", src)
	}
	return diags
}

func hasCategory(diags diag.List, cat diag.Category) bool {
	for _, d := range diags {
		if d.Category == cat {
			return true
		}
	}
	return false
}

func TestParseMinimalModule(t *testing.T) {
	file := mustParse(t, "module top; endmodule")
	if len(file.Modules) != 1 || file.Modules[0].Name != "top" {
		t.Fatalf("bad module: %+v", file.Modules)
	}
	if !file.Modules[0].Complete {
		t.Error("module should be complete")
	}
}

func TestParseANSIPorts(t *testing.T) {
	file := mustParse(t, `
module top_module (
	input [7:0] in,
	input clk, rst,
	output reg [7:0] out,
	output wire done
);
endmodule`)
	m := file.Modules[0]
	if len(m.Ports) != 5 {
		t.Fatalf("got %d ports, want 5", len(m.Ports))
	}
	checks := []struct {
		name string
		dir  PortDir
		kind NetKind
	}{
		{"in", DirInput, KindNone},
		{"clk", DirInput, KindNone},
		{"rst", DirInput, KindNone},
		{"out", DirOutput, KindReg},
		{"done", DirOutput, KindWire},
	}
	for i, c := range checks {
		p := m.Ports[i]
		if p.Name != c.name || p.Dir != c.dir || p.Kind != c.kind {
			t.Errorf("port %d = {%s %v %v}, want {%s %v %v}",
				i, p.Name, p.Dir, p.Kind, c.name, c.dir, c.kind)
		}
	}
	if m.Ports[0].VRange == nil {
		t.Error("port 'in' should have a range")
	}
	if m.Ports[1].VRange != nil {
		t.Error("port 'clk' should not have a range")
	}
}

func TestParseNonANSIPorts(t *testing.T) {
	file := mustParse(t, `
module top(a, b, y);
	input a, b;
	output y;
	assign y = a & b;
endmodule`)
	m := file.Modules[0]
	if len(m.Ports) != 3 {
		t.Fatalf("got %d header ports, want 3", len(m.Ports))
	}
	// body port items: input a, input b (split), output y
	portItems := 0
	for _, item := range m.Items {
		if _, ok := item.(*PortItem); ok {
			portItems++
		}
	}
	if portItems != 3 {
		t.Errorf("got %d body port items, want 3", portItems)
	}
}

func TestParseParameterHeader(t *testing.T) {
	file := mustParse(t, `
module counter #(parameter WIDTH = 8, parameter MAX = 255) (
	input clk,
	output reg [WIDTH-1:0] count
);
endmodule`)
	m := file.Modules[0]
	params := 0
	for _, item := range m.Items {
		if _, ok := item.(*ParamDecl); ok {
			params++
		}
	}
	if params != 2 {
		t.Errorf("got %d param decls, want 2", params)
	}
}

func TestParseAlwaysVariants(t *testing.T) {
	srcs := []string{
		"module t(input clk, output reg q); always @(posedge clk) q <= 1; endmodule",
		"module t(input clk, input rst, output reg q); always @(posedge clk or negedge rst) q <= 1; endmodule",
		"module t(input a, output reg q); always @(*) q = a; endmodule",
		"module t(input a, output reg q); always @* q = a; endmodule",
		"module t(input a, input b, output reg q); always @(a or b) q = a & b; endmodule",
		"module t(input a, input b, output reg q); always @(a, b) q = a | b; endmodule",
	}
	for _, src := range srcs {
		file := mustParse(t, src)
		found := false
		for _, item := range file.Modules[0].Items {
			if _, ok := item.(*AlwaysBlock); ok {
				found = true
			}
		}
		if !found {
			t.Errorf("no always block parsed from: %s", src)
		}
	}
}

func TestParseStatements(t *testing.T) {
	src := `
module fsm(input clk, input rst, input in, output reg out);
	reg [1:0] state, next;
	always @(posedge clk) begin
		if (rst)
			state <= 2'b00;
		else
			state <= next;
	end
	always @(*) begin
		case (state)
			2'b00: next = in ? 2'b01 : 2'b00;
			2'b01, 2'b10: next = 2'b10;
			default: next = 2'b00;
		endcase
		out = state == 2'b10;
	end
endmodule`
	file := mustParse(t, src)
	m := file.Modules[0]
	always := 0
	for _, item := range m.Items {
		if _, ok := item.(*AlwaysBlock); ok {
			always++
		}
	}
	if always != 2 {
		t.Fatalf("got %d always blocks, want 2", always)
	}
}

func TestParseForLoop(t *testing.T) {
	src := `
module rev(input [7:0] in, output reg [7:0] out);
	integer i;
	always @(*) begin
		for (i = 0; i < 8; i = i + 1)
			out[i] = in[7 - i];
	end
endmodule`
	mustParse(t, src)
}

func TestParseSVForLoop(t *testing.T) {
	src := `
module rev(input [99:0] in, output reg [99:0] out);
	always @(*) begin
		for (int i = 0; i < 100; i = i + 1)
			out[i] = in[99 - i];
	end
endmodule`
	file := mustParse(t, src)
	var forStmt *ForStmt
	for _, item := range file.Modules[0].Items {
		if ab, ok := item.(*AlwaysBlock); ok {
			WalkStmts(ab.Body, func(s Stmt) {
				if f, ok := s.(*ForStmt); ok {
					forStmt = f
				}
			})
		}
	}
	if forStmt == nil || forStmt.LoopVar != "i" {
		t.Fatalf("SV for loop with inline declaration not parsed: %+v", forStmt)
	}
}

func TestParseConcatAndReplication(t *testing.T) {
	src := `
module c(input [3:0] a, input [3:0] b, output [7:0] y, output [15:0] z);
	assign y = {a, b};
	assign z = {4{a}};
endmodule`
	file := mustParse(t, src)
	var concat, repl bool
	for _, item := range file.Modules[0].Items {
		if as, ok := item.(*AssignItem); ok {
			switch as.RHS.(type) {
			case *Concat:
				concat = true
			case *Repl:
				repl = true
			}
		}
	}
	if !concat || !repl {
		t.Fatalf("concat=%v repl=%v, want both", concat, repl)
	}
}

func TestParseConcatLHS(t *testing.T) {
	src := `
module add(input [7:0] a, input [7:0] b, output [7:0] sum, output co);
	assign {co, sum} = a + b;
endmodule`
	file := mustParse(t, src)
	as := file.Modules[0].Items[0].(*AssignItem)
	if _, ok := as.LHS.(*Concat); !ok {
		t.Fatalf("LHS is %T, want *Concat", as.LHS)
	}
}

func TestParsePartSelects(t *testing.T) {
	src := `
module s(input [31:0] in, input [4:0] sel, output [7:0] a, output [7:0] b, output [7:0] c);
	assign a = in[15:8];
	assign b = in[sel +: 8];
	assign c = in[sel -: 8];
endmodule`
	mustParse(t, src)
}

func TestParseTernaryPrecedence(t *testing.T) {
	src := "module m(input a, input b, input c, output y); assign y = a ? b : c; endmodule"
	file := mustParse(t, src)
	as := file.Modules[0].Items[0].(*AssignItem)
	if _, ok := as.RHS.(*Ternary); !ok {
		t.Fatalf("RHS is %T, want *Ternary", as.RHS)
	}
}

func TestParseOperatorPrecedence(t *testing.T) {
	// a | b & c must parse as a | (b & c)
	src := "module m(input a, input b, input c, output y); assign y = a | b & c; endmodule"
	file := mustParse(t, src)
	as := file.Modules[0].Items[0].(*AssignItem)
	or, ok := as.RHS.(*Binary)
	if !ok || or.Op != "|" {
		t.Fatalf("top op = %+v, want |", as.RHS)
	}
	and, ok := or.Y.(*Binary)
	if !ok || and.Op != "&" {
		t.Fatalf("rhs of | = %+v, want &-expression", or.Y)
	}
}

func TestParseCommaChainedAssign(t *testing.T) {
	src := "module m(input a, output x, output y); assign x = a, y = ~a; endmodule"
	file := mustParse(t, src)
	count := 0
	for _, item := range file.Modules[0].Items {
		if _, ok := item.(*AssignItem); ok {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("got %d assigns, want 2", count)
	}
}

// ---------- error categories ----------

func TestParseErrMissingSemicolon(t *testing.T) {
	diags := parseErrors(t, `
module m(input a, output reg y);
	always @(*) begin
		y = a
	end
endmodule`)
	if !hasCategory(diags, diag.CatMissingSemicolon) {
		t.Fatalf("want missing-semicolon, got %s", diags.Summary())
	}
}

func TestParseErrUnmatchedBegin(t *testing.T) {
	diags := parseErrors(t, `
module m(input a, output reg y);
	always @(*) begin
		y = a;
endmodule`)
	if !hasCategory(diags, diag.CatUnmatchedBeginEnd) {
		t.Fatalf("want unmatched-begin-end, got %s", diags.Summary())
	}
}

func TestParseErrMissingEndmodule(t *testing.T) {
	diags := parseErrors(t, `
module m(input a, output y);
	assign y = a;`)
	if !hasCategory(diags, diag.CatMissingEndmodule) {
		t.Fatalf("want missing-endmodule, got %s", diags.Summary())
	}
}

func TestParseErrStrayEndmodule(t *testing.T) {
	diags := parseErrors(t, "module m; endmodule\nendmodule")
	if !hasCategory(diags, diag.CatModuleStructure) {
		t.Fatalf("want module-structure, got %s", diags.Summary())
	}
}

func TestParseErrCStyleIncrement(t *testing.T) {
	diags := parseErrors(t, `
module m(input [7:0] in, output reg [7:0] out);
	integer i;
	always @(*) begin
		for (i = 0; i < 8; i++)
			out[i] = in[i];
	end
endmodule`)
	if !hasCategory(diags, diag.CatCStyleSyntax) {
		t.Fatalf("want c-style-syntax, got %s", diags.Summary())
	}
}

func TestParseErrCStyleBraces(t *testing.T) {
	diags := parseErrors(t, `
module m(input a, output reg y);
	always @(*) begin
		if (a) {
			y = 1;
		}
	end
endmodule`)
	if !hasCategory(diags, diag.CatCStyleSyntax) {
		t.Fatalf("want c-style-syntax, got %s", diags.Summary())
	}
}

func TestParseErrCStylePlusEquals(t *testing.T) {
	diags := parseErrors(t, `
module m(input clk, output reg [7:0] cnt);
	always @(posedge clk)
		cnt += 1;
endmodule`)
	if !hasCategory(diags, diag.CatCStyleSyntax) {
		t.Fatalf("want c-style-syntax, got %s", diags.Summary())
	}
}

func TestParseErrMisplacedDirective(t *testing.T) {
	diags := parseErrors(t, "module m(input a, output y);\n`timescale 1ns/1ps\nassign y = a;\nendmodule")
	if !hasCategory(diags, diag.CatMisplacedDirective) {
		t.Fatalf("want misplaced-directive, got %s", diags.Summary())
	}
}

func TestParseErrKeywordAsIdent(t *testing.T) {
	diags := parseErrors(t, "module m(input wire, output y); assign y = 0; endmodule")
	// 'wire' consumed as net kind, then ',' where name expected
	if !diags.HasErrors() {
		t.Fatal("expected errors")
	}
	diags = parseErrors(t, "module m(input a, output reg); assign reg = a; endmodule")
	if !hasCategory(diags, diag.CatKeywordAsIdent) {
		t.Fatalf("want keyword-as-identifier, got %s", diags.Summary())
	}
}

func TestParseErrSensitivityList(t *testing.T) {
	diags := parseErrors(t, `
module m(input a, output reg y);
	always begin
		y = a;
	end
endmodule`)
	if !hasCategory(diags, diag.CatSensitivityList) {
		t.Fatalf("want sensitivity-list, got %s", diags.Summary())
	}
}

func TestParseErrMalformedLiteral(t *testing.T) {
	diags := parseErrors(t, "module m(output [7:0] y); assign y = 8'hXYZW; endmodule")
	if !hasCategory(diags, diag.CatMalformedLiteral) {
		t.Fatalf("want malformed-literal, got %s", diags.Summary())
	}
}

func TestParseErrEmptyConcat(t *testing.T) {
	diags := parseErrors(t, "module m(output y); assign y = {}; endmodule")
	if !hasCategory(diags, diag.CatBadConcat) {
		t.Fatalf("want bad-concatenation, got %s", diags.Summary())
	}
}

func TestParseErrCodeOutsideModule(t *testing.T) {
	diags := parseErrors(t, "assign y = a;\nmodule m; endmodule")
	if !hasCategory(diags, diag.CatModuleStructure) {
		t.Fatalf("want module-structure, got %s", diags.Summary())
	}
}

func TestParseRecoveryProducesPartialAST(t *testing.T) {
	// Even with an error mid-module the parser should deliver the module
	// and subsequent items.
	src := `
module m(input a, input b, output y, output z);
	assign y = a &&& b;
	assign z = a | b;
endmodule`
	file, diags := Parse(src)
	if !diags.HasErrors() {
		t.Skip("&&& happens to parse; adjust the fixture")
	}
	if len(file.Modules) != 1 {
		t.Fatalf("partial AST lost the module")
	}
}

func TestParseErrorsBounded(t *testing.T) {
	// Error recovery must not loop forever or flood diagnostics.
	src := "module m(input a);\n"
	for i := 0; i < 200; i++ {
		src += "assign = = = ;\n"
	}
	src += "endmodule"
	_, diags := Parse(src)
	if len(diags.Errors()) > maxParseErrors+2 {
		t.Fatalf("got %d errors, want at most ~%d", len(diags.Errors()), maxParseErrors)
	}
}

// TestParseNeverPanics fuzzes the parser with arbitrary strings: it must
// terminate and never panic.
func TestParseNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		file, _ := Parse(string(data))
		return file != nil
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestParseNeverPanicsOnTokenSoup fuzzes with syntactically plausible
// token sequences, which reach deeper parser paths than byte soup.
func TestParseNeverPanicsOnTokenSoup(t *testing.T) {
	vocab := []string{
		"module", "endmodule", "input", "output", "reg", "wire", "assign",
		"always", "begin", "end", "if", "else", "case", "endcase", "for",
		"posedge", "clk", "a", "b", "y", "[7:0]", "[", "]", "(", ")", ";",
		",", "=", "<=", "@", "*", "{", "}", "8'hff", "4'b1010", "1", "0",
		"+", "-", "&", "|", "^", "~", "?", ":", "`timescale", "default",
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		n := rng.Intn(60)
		parts := make([]string, n)
		for j := range parts {
			parts[j] = vocab[rng.Intn(len(vocab))]
		}
		src := "module m(input a, output y);\n"
		for _, p := range parts {
			src += p + " "
		}
		src += "\nendmodule"
		file, _ := Parse(src) // must not panic
		if file == nil {
			t.Fatal("nil file")
		}
	}
}

func TestNumberValues(t *testing.T) {
	cases := []struct {
		text  string
		width int
		val   uint64
	}{
		{"42", 32, 42},
		{"8'hff", 8, 255},
		{"8'hFF", 8, 255},
		{"4'b1010", 4, 10},
		{"3'o7", 3, 7},
		{"16'd1234", 16, 1234},
		{"4'b10_10", 4, 10},
		{"2'b11", 2, 3},
		{"8'bxxxxxxxx", 8, 0}, // x decodes as 0 in two-state
		{"65536'h1", MaxLiteralBits, 1},
	}
	for _, c := range cases {
		n := &Number{Text: c.text}
		v, err := n.Value()
		if err != nil {
			t.Errorf("Value(%q) error: %v", c.text, err)
			continue
		}
		if v.Width() != c.width || v.Uint64() != c.val {
			t.Errorf("Value(%q) = width %d val %d, want width %d val %d",
				c.text, v.Width(), v.Uint64(), c.width, c.val)
		}
	}
	// wider than MaxLiteralBits: an error, allocating nothing
	for _, text := range []string{"65537'h0", "2000000000'd0"} {
		if _, err := (&Number{Text: text}).Value(); err == nil || !strings.Contains(err.Error(), "over the limit of 65536 bits") {
			t.Errorf("Value(%q) error = %v, want the size limit", text, err)
		}
	}
}

func TestParseConcatLHSInAlways(t *testing.T) {
	// A '{' can legally open a statement when it is a concatenation
	// assignment target; it must not be mistaken for a C-style block.
	src := `
module add(input [3:0] a, input [3:0] b, output reg [3:0] sum, output reg carry);
	always @(*) begin
		{carry, sum} = a + b;
	end
endmodule`
	file := mustParse(t, src)
	var found bool
	for _, item := range file.Modules[0].Items {
		ab, ok := item.(*AlwaysBlock)
		if !ok {
			continue
		}
		WalkStmts(ab.Body, func(s Stmt) {
			if as, ok := s.(*AssignStmt); ok {
				if _, isConcat := as.LHS.(*Concat); isConcat {
					found = true
				}
			}
		})
	}
	if !found {
		t.Fatal("concat-LHS assignment statement not parsed")
	}
}

func TestParseConcatLHSNonBlocking(t *testing.T) {
	mustParse(t, `
module m(input clk, input [7:0] d, output reg [3:0] hi, output reg [3:0] lo);
	always @(posedge clk)
		{hi, lo} <= d;
endmodule`)
}
