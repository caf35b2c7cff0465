package verilog

import (
	"reflect"
	"strings"
	"testing"
)

// formatSources are Format's own round-trip fixtures. Each parses
// cleanly, as do all the fixtures below.
var formatSources = []string{
	`module m(input clk, input [7:0] d, output reg [7:0] q);
	always @(posedge clk) begin
		q = d;
		q[4:1] = q;
	end
endmodule`,
	`module m(input [7:0] a, input [7:0] b, output [7:0] y, output c);
	wire [8:0] s = a + b;
	assign y = s[7:0];
	assign c = s[8];
endmodule`,
	`module m(input clk, input rst, input in, output reg out);
	reg [1:0] state;
	always @(posedge clk or posedge rst) begin
		if (rst)
			state <= 2'b00;
		else
			case (state)
				2'b00: state <= in ? 2'b01 : 2'b00;
				2'b01, 2'b10: state <= 2'b10;
				default: state <= 2'b00;
			endcase
	end
	always @(*) out = state == 2'b10;
endmodule`,
	`module m(input clk, input [7:0] d, output reg [7:0] q);
	integer i;
	always @(posedge clk)
		for (i = 0; i < 8; i = i + 1)
			q[i] <= d[7 - i];
endmodule`,
	`module m(input [15:0] in, input [3:0] base, output [3:0] lo, output [3:0] hi);
	assign lo = in[base +: 4];
	assign hi = in[base -: 4];
endmodule`,
	`module m(input [3:0] a, output [15:0] y);
	parameter W = 4;
	localparam D = W * 2;
	assign y = {D{a[0]}} | {a, a, a, a};
endmodule`,
	`module m(input [7:0] a, output signed [8:0] y);
	assign y = $signed(a) + $signed(4'b1010);
endmodule`,
	`module m(input clk, input [7:0] d, output reg [7:0] q);
	always @(posedge clk) begin : blk
		integer i;
		for (i = 0; i < 4; i = i + 1)
			q[i] <= d[i] & ~d[i + 4];
	end
endmodule`,
	// A unary of a unary: printed without parentheses, "- -a" would
	// become the decrement "--a".
	`module m(input [3:0] a, output [3:0] y);
	assign y = - -a;
endmodule`,
	blockLocalDecls,
}

// reparseSources are designs whose printed form must re-parse: a
// parameterized select, a replication, a loop variable declared in the
// for header and a `timescale directive.
var reparseSources = []string{
	`module m(input [7:0] a, input [7:0] b, output [7:0] y);
	assign y = a ^ b;
endmodule`,
	`module fsm(input clk, input rst, input in, output reg out);
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
endmodule`,
	// A loop variable declared in the for header.
	`module rev(input [99:0] in, output reg [99:0] out);
	always @(*) begin
		for (int i = 0; i < 100; i = i + 1)
			out[i] = in[99 - i];
	end
endmodule`,
	`module ps(input [31:0] in, input [4:0] sel, output [7:0] y, output [7:0] z);
	assign y = in[sel +: 8];
	assign z = {4{in[1:0]}};
endmodule`,
	"`timescale 1ns/1ps\nmodule t(input a, output y);\n\tassign y = ~a;\nendmodule",
}

// portlessModule is the smallest module.
const portlessModule = "module top; endmodule"

// headerParams declares its parameter in the module header and sizes
// its ports with it.
const headerParams = `module m #(parameter W = 8) (
	input clk,
	input [W-1:0] d,
	output reg [W-1:0] q
);
	localparam HALF = W / 2;
	always @(posedge clk)
		q <= d;
endmodule`

// roundTripSources are all the fixtures; FuzzFormatRoundTrip starts
// from them.
var roundTripSources = append(append(append([]string{}, formatSources...), reparseSources...),
	portlessModule, headerParams)

// blockLocalDecls declares a signed block-local and an initialized one.
const blockLocalDecls = `module m(input clk, input [3:0] d, output reg [3:0] q);
	always @(posedge clk) begin : blk
		reg signed [3:0] t;
		integer k = 2;
		t = d;
		q <= t + k;
	end
endmodule`

// roundTrip checks the printer's core contract on a cleanly parsed file:
// Format output re-parses with no errors, and printing the re-parsed
// AST reproduces the same text (a fixed point after one
// canonicalization pass). It returns the re-parsed file.
func roundTrip(t testing.TB, file *SourceFile) *SourceFile {
	t.Helper()
	once := Format(file)
	again, diags := Parse(once)
	if diags.HasErrors() {
		t.Fatalf("formatted output does not re-parse: %s\n%s", diags.Summary(), once)
	}
	if twice := Format(again); twice != once {
		t.Fatalf("printer is not a fixed point.\nfirst:\n%s\nsecond:\n%s", once, twice)
	}
	return again
}

// checkRoundTrip runs roundTrip over each source and checks that the
// printed form keeps the file's shape: its directives, and each
// module's name and port names and directions.
func checkRoundTrip(t *testing.T, srcs ...string) {
	t.Helper()
	for i, src := range srcs {
		file, diags := Parse(src)
		if diags.HasErrors() {
			t.Fatalf("case %d: seed source does not parse: %s", i, diags.Summary())
		}
		re := roundTrip(t, file)
		if len(re.Directives) != len(file.Directives) || len(re.Modules) != len(file.Modules) {
			t.Fatalf("case %d: %d directives and %d modules became %d and %d", i,
				len(file.Directives), len(file.Modules), len(re.Directives), len(re.Modules))
		}
		for mi, orig := range file.Modules {
			got := re.Modules[mi]
			if orig.Name != got.Name || len(orig.Ports) != len(got.Ports) {
				t.Fatalf("case %d: module %s with %d ports became %s with %d", i,
					orig.Name, len(orig.Ports), got.Name, len(got.Ports))
			}
			for pi, p := range orig.Ports {
				if p.Name != got.Ports[pi].Name || p.Dir != got.Ports[pi].Dir {
					t.Fatalf("case %d: port %d changed: %+v vs %+v", i, pi, p, got.Ports[pi])
				}
			}
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	checkRoundTrip(t, formatSources...)
}

func TestPrintRoundTripReparses(t *testing.T) {
	checkRoundTrip(t, reparseSources...)
}

func TestPrintPreservesModuleShape(t *testing.T) {
	checkRoundTrip(t, headerParams)
}

func TestPrintMinimal(t *testing.T) {
	// Format prints an empty port list for a portless module.
	out := Format(mustParse(t, portlessModule))
	if !strings.Contains(out, "module top();") || !strings.Contains(out, "endmodule") {
		t.Fatalf("bad print:\n%s", out)
	}
	checkRoundTrip(t, portlessModule)
}

// TestFormatKeepsBlockLocalDecls: a block-local declaration keeps its
// signedness, range and initializer through the round-trip.
func TestFormatKeepsBlockLocalDecls(t *testing.T) {
	re := roundTrip(t, mustParse(t, blockLocalDecls))
	block := re.Modules[0].Items[0].(*AlwaysBlock).Body.(*BlockStmt)
	if len(block.Decls) != 2 {
		t.Fatalf("got %d block-local declarations, want 2", len(block.Decls))
	}
	if tDecl := block.Decls[0]; !tDecl.Signed || tDecl.VRange == nil || FormatExpr(tDecl.VRange.MSB) != "3" {
		t.Fatalf("reg signed [3:0] t lost its signedness or range: %+v", tDecl)
	}
	if k := block.Decls[1].Names[0]; k.Name != "k" || FormatExpr(k.Init) != "2" {
		t.Fatalf("integer k = 2 lost its initializer: %+v", k)
	}
}

// TestFormatBestEffortAST: the best-effort AST of a parameter with no
// value prints without an empty initializer, re-parses to the same
// error, and prints to a fixed point.
func TestFormatBestEffortAST(t *testing.T) {
	src := `module m(input a, output y);
	parameter P;
	assign y = a;
endmodule`
	file, diags := Parse(src)
	if !diags.HasErrors() {
		t.Fatal("a parameter with no value must not parse cleanly")
	}
	once := Format(file)
	if strings.Contains(once, "= ;") {
		t.Fatalf("printed an empty initializer:\n%s", once)
	}
	again, diags2 := Parse(once)
	if got, want := diags2.Errors().Categories(), diags.Errors().Categories(); !reflect.DeepEqual(got, want) {
		t.Fatalf("re-parse errors %v, want %v\n%s", got, want, once)
	}
	if twice := Format(again); twice != once {
		t.Fatalf("printer is not a fixed point.\nfirst:\n%s\nsecond:\n%s", once, twice)
	}
}

// TestExprStringForms pins FormatExpr's output form: binary, ternary and
// unary operands are parenthesized, selects and calls are not.
func TestExprStringForms(t *testing.T) {
	cases := map[string]string{
		"a + b * c":  "(a + (b * c))",
		"a ? b : c":  "(a ? b : c)",
		"{a, b}":     "{a, b}",
		"{3{a}}":     "{3{a}}",
		"x[7:0]":     "x[7:0]",
		"x[i +: 8]":  "x[i +: 8]",
		"~&x":        "~&(x)",
		"- -a":       "-(-(a))",
		"$signed(a)": "$signed(a)",
		"in[99 - i]": "in[(99 - i)]",
	}
	for src, want := range cases {
		file := mustParse(t, "module m(input a, output y); assign y = "+src+"; endmodule")
		as := file.Modules[0].Items[0].(*AssignItem)
		if got := FormatExpr(as.RHS); got != want {
			t.Errorf("FormatExpr(%q) = %q, want %q", src, got, want)
		}
	}
}

// FuzzFormatRoundTrip runs roundTrip on every input that parses
// cleanly, seeded with the round-trip fixtures.
func FuzzFormatRoundTrip(f *testing.F) {
	for _, src := range roundTripSources {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, diags := Parse(src)
		if diags.HasErrors() {
			t.Skip()
		}
		roundTrip(t, file)
	})
}
