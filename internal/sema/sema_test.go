package sema

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/diag"
	"repro/internal/verilog"
)

func elab(t *testing.T, src string) (*Design, diag.List) {
	t.Helper()
	file, parseDiags := verilog.Parse(src)
	if parseDiags.HasErrors() {
		t.Fatalf("fixture has parse errors: %s", parseDiags.Summary())
	}
	return Elaborate(file)
}

func wantClean(t *testing.T, src string) *Design {
	t.Helper()
	d, diags := elab(t, src)
	if diags.HasErrors() {
		t.Fatalf("unexpected elaboration errors: %s", diags.Summary())
	}
	return d
}

func wantCategory(t *testing.T, src string, cat diag.Category) diag.List {
	t.Helper()
	_, diags := elab(t, src)
	for _, d := range diags {
		if d.Category == cat && d.Severity == diag.SeverityError {
			return diags
		}
	}
	t.Fatalf("expected %s error, got: %s", cat, diags.Summary())
	return nil
}

func TestElabCleanModule(t *testing.T) {
	d := wantClean(t, `
module top_module(input [7:0] in, output [7:0] out);
	assign out = ~in;
endmodule`)
	if d.Signal("in") == nil || d.Signal("out") == nil {
		t.Fatal("ports missing from symbol table")
	}
	if w := d.Signal("in").Width(); w != 8 {
		t.Fatalf("in width = %d, want 8", w)
	}
	if len(d.Inputs()) != 1 || len(d.Outputs()) != 1 {
		t.Fatalf("inputs=%d outputs=%d", len(d.Inputs()), len(d.Outputs()))
	}
}

func TestElabUndeclaredClk(t *testing.T) {
	// The paper's canonical example (Fig. 5): posedge clk with no clk port.
	diags := wantCategory(t, `
module top_module (
	input [99:0] in,
	output reg [99:0] out
);
	always @(posedge clk) begin
		for (int i = 0; i < 100; i = i + 1) begin
			out[i] <= in[99 - i];
		end
	end
endmodule`, diag.CatUndeclaredIdent)
	found := false
	for _, d := range diags {
		if d.Symbol == "clk" {
			found = true
		}
	}
	if !found {
		t.Fatalf("diagnostic should name 'clk': %s", diags.Summary())
	}
}

func TestElabIndexOutOfRange(t *testing.T) {
	// The paper's Fig. 2a example: out[8] on a [7:0] vector.
	diags := wantCategory(t, `
module top_module (input [7:0] in, output [7:0] out);
	assign {out[0],out[1],out[2],out[3],out[4],out[5],out[6],out[8]} = in;
endmodule`, diag.CatIndexOutOfRange)
	found := false
	for _, d := range diags {
		if d.Category == diag.CatIndexOutOfRange && d.Symbol == "out" {
			found = true
		}
	}
	if !found {
		t.Fatalf("diagnostic should name 'out': %s", diags.Summary())
	}
}

func TestElabNegativeConstantIndex(t *testing.T) {
	// The paper's Fig. 6 failure case: folded index arithmetic goes
	// negative ((0-1)*16 + (0-1) = -17).
	wantCategory(t, `
module conway(input [255:0] q, output [7:0] n0);
	assign n0 = q[(0-1)*16 + (0-1)];
endmodule`, diag.CatIndexOutOfRange)
}

func TestElabInvalidLValueWireInAlways(t *testing.T) {
	wantCategory(t, `
module m(input a, output out);
	always @(*) begin
		out = a;
	end
endmodule`, diag.CatInvalidLValue)
}

func TestElabAssignToReg(t *testing.T) {
	wantCategory(t, `
module m(input a, output reg out);
	assign out = a;
endmodule`, diag.CatAssignToReg)
}

func TestElabAssignToInput(t *testing.T) {
	wantCategory(t, `
module m(input a, input b, output y);
	assign a = b;
	assign y = a;
endmodule`, diag.CatInvalidLValue)
}

func TestElabDuplicateDecl(t *testing.T) {
	wantCategory(t, `
module m(input a, output y);
	wire tmp;
	wire tmp;
	assign y = a;
endmodule`, diag.CatDuplicateDecl)
}

func TestElabPortNotDirected(t *testing.T) {
	wantCategory(t, `
module m(a, y);
	input a;
	assign y = a;
endmodule`, diag.CatPortMismatch)
}

func TestElabBodyPortNotInHeader(t *testing.T) {
	wantCategory(t, `
module m(a);
	input a;
	output y;
	assign y = a;
endmodule`, diag.CatPortMismatch)
}

func TestElabNonConstantRange(t *testing.T) {
	wantCategory(t, `
module m(input [7:0] n, output y);
	wire [n:0] bus;
	assign y = 0;
endmodule`, diag.CatNonConstantExpr)
}

func TestElabReversedPartSelect(t *testing.T) {
	wantCategory(t, `
module m(input [7:0] in, output [3:0] y);
	assign y = in[0:3];
endmodule`, diag.CatIndexOutOfRange)
}

func TestElabNoModule(t *testing.T) {
	file, _ := verilog.Parse("// just a comment\n")
	_, diags := Elaborate(file)
	if !diags.HasErrors() {
		t.Fatal("empty file must fail elaboration")
	}
}

func TestElabParamsFold(t *testing.T) {
	d := wantClean(t, `
module m #(parameter WIDTH = 8) (
	input [WIDTH-1:0] in,
	output [WIDTH-1:0] out
);
	localparam HALF = WIDTH / 2;
	assign out = in;
endmodule`)
	if got := d.Params["WIDTH"].Uint64(); got != 8 {
		t.Fatalf("WIDTH = %d, want 8", got)
	}
	if got := d.Params["HALF"].Uint64(); got != 4 {
		t.Fatalf("HALF = %d, want 4", got)
	}
	if w := d.Signal("in").Width(); w != 8 {
		t.Fatalf("in width = %d, want 8", w)
	}
}

func TestElabParamUsedAsIndexBound(t *testing.T) {
	wantClean(t, `
module m #(parameter N = 4) (input [N-1:0] in, output out);
	assign out = in[N-1];
endmodule`)
}

func TestElabParamIndexOutOfRange(t *testing.T) {
	wantCategory(t, `
module m #(parameter N = 4) (input [N-1:0] in, output out);
	assign out = in[N];
endmodule`, diag.CatIndexOutOfRange)
}

func TestElabLoopVarScoped(t *testing.T) {
	// Loop variables declared inline must be visible in the body and the
	// step, and must not leak.
	wantClean(t, `
module m(input [7:0] in, output reg [7:0] out);
	always @(*) begin
		for (int i = 0; i < 8; i = i + 1)
			out[i] = in[7 - i];
	end
endmodule`)
}

func TestElabBlockLocalInteger(t *testing.T) {
	wantClean(t, `
module m(input [7:0] in, output reg [3:0] cnt);
	integer i;
	always @(*) begin
		cnt = 0;
		for (i = 0; i < 8; i = i + 1)
			cnt = cnt + in[i];
	end
endmodule`)
}

func TestElabOutputRegNonBlocking(t *testing.T) {
	wantClean(t, `
module m(input clk, input d, output reg q);
	always @(posedge clk)
		q <= d;
endmodule`)
}

func TestElabWidthMismatchWarning(t *testing.T) {
	_, diags := elab(t, `
module m(input [3:0] a, output [7:0] y);
	assign y = a;
endmodule`)
	if diags.HasErrors() {
		t.Fatalf("width mismatch must be a warning: %s", diags.Summary())
	}
	found := false
	for _, d := range diags.Warnings() {
		if d.Category == diag.CatWidthMismatch {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected width-mismatch warning: %s", diags.Summary())
	}
}

func TestElabDynamicIndexAllowed(t *testing.T) {
	wantClean(t, `
module m(input [7:0] in, input [2:0] sel, output out);
	assign out = in[sel];
endmodule`)
}

func TestElabNonAnsiComplete(t *testing.T) {
	wantClean(t, `
module m(a, b, y);
	input a, b;
	output y;
	assign y = a ^ b;
endmodule`)
}

func TestElabAnsiOutputThenRegBody(t *testing.T) {
	// 'output [7:0] out' in the header completed by 'reg [7:0] out' in
	// the body is accepted (relaxed merge).
	wantClean(t, `
module m(input clk, output [7:0] out);
	reg [7:0] out;
	always @(posedge clk) out <= out + 1;
endmodule`)
}

func TestElabConcatLHSChecksEachPart(t *testing.T) {
	wantCategory(t, `
module m(input [8:0] x, output [7:0] sum, output reg co);
	assign {co, sum} = x;
endmodule`, diag.CatAssignToReg)
}

func TestElabMultipleModulesRejected(t *testing.T) {
	file, pd := verilog.Parse("module a; endmodule\nmodule b; endmodule")
	if pd.HasErrors() {
		t.Fatal(pd.Summary())
	}
	_, diags := Elaborate(file)
	if !diags.HasErrors() {
		t.Fatal("two modules must be an elaboration error")
	}
}

func TestElabSuggestionsPresent(t *testing.T) {
	_, diags := elab(t, `
module m(input a, output out);
	always @(*) out = a;
endmodule`)
	first, ok := diags.First()
	if !ok {
		t.Fatal("expected an error")
	}
	if first.Suggestion == "" {
		t.Fatal("sema errors should carry fix suggestions for the Quartus persona")
	}
}

func TestElabMultipleContinuousDrivers(t *testing.T) {
	_, diags := elab(t, `
module m(input a, input b, output y);
	assign y = a;
	assign y = b;
endmodule`)
	if diags.HasErrors() {
		t.Fatalf("multiple drivers must stay warning-level: %s", diags.Summary())
	}
	found := false
	for _, d := range diags.Warnings() {
		if d.Category == diag.CatMultipleDrivers && d.Symbol == "y" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected multiple-drivers warning: %s", diags.Summary())
	}
}

func TestElabAssignPlusAlwaysDriver(t *testing.T) {
	_, diags := elab(t, `
module m(input clk, input a, output reg y);
	always @(posedge clk) y <= a;
endmodule`)
	for _, d := range diags.Warnings() {
		if d.Category == diag.CatMultipleDrivers {
			t.Fatalf("single always driver must not warn: %s", diags.Summary())
		}
	}
	_, diags2 := elab(t, `
module m2(input clk, input a, output reg y);
	assign y = a;
	always @(posedge clk) y <= a;
endmodule`)
	found := false
	for _, d := range diags2 {
		if d.Category == diag.CatMultipleDrivers {
			found = true
		}
	}
	if !found {
		t.Fatalf("assign+always on one signal must warn: %s", diags2.Summary())
	}
}

func TestElabTwoAlwaysBlocksSameTarget(t *testing.T) {
	_, diags := elab(t, `
module m(input clk, input a, input b, output reg y);
	always @(posedge clk) y <= a;
	always @(posedge clk) y <= b;
endmodule`)
	found := false
	for _, d := range diags.Warnings() {
		if d.Category == diag.CatMultipleDrivers {
			found = true
		}
	}
	if !found {
		t.Fatalf("two always drivers must warn: %s", diags.Summary())
	}
}

func TestElabDisjointPartSelectAssignsStillWarn(t *testing.T) {
	// Two continuous assigns to disjoint slices of one net: flagged (a
	// deliberate simplification both reference personas share).
	_, diags := elab(t, `
module m(input [3:0] a, input [3:0] b, output [7:0] y);
	assign y[3:0] = a;
	assign y[7:4] = b;
endmodule`)
	if diags.HasErrors() {
		t.Fatalf("must not be an error: %s", diags.Summary())
	}
}

func TestElabConstantFolding(t *testing.T) {
	// Exercise the constant folder across operators via localparams.
	d := wantClean(t, `
module m #(parameter A = 12, parameter B = 5) (input x, output y);
	localparam SUM = A + B;
	localparam DIFF = A - B;
	localparam PROD = A * B;
	localparam QUOT = A / B;
	localparam REM = A % B;
	localparam AND_ = A & B;
	localparam OR_ = A | B;
	localparam XOR_ = A ^ B;
	localparam SHL = A << 2;
	localparam SHR = A >> 2;
	localparam EQ = A == B;
	localparam NE = A != B;
	localparam LT = A < B;
	localparam GE = A >= B;
	localparam LAND = A && B;
	localparam TERN = A > B ? A : B;
	localparam NEG = -B;
	localparam NOTB = !B;
	localparam CLOG = $clog2(A);
	assign y = x;
endmodule`)
	checks := map[string]uint64{
		"SUM": 17, "DIFF": 7, "PROD": 60, "QUOT": 2, "REM": 2,
		"AND_": 4, "OR_": 13, "XOR_": 9, "SHL": 48, "SHR": 3,
		"EQ": 0, "NE": 1, "LT": 0, "GE": 1, "LAND": 1, "TERN": 12,
		"NOTB": 0, "CLOG": 4,
	}
	for name, want := range checks {
		v, ok := d.Params[name]
		if !ok {
			t.Errorf("param %s missing", name)
			continue
		}
		if v.Uint64() != want {
			t.Errorf("%s = %d, want %d", name, v.Uint64(), want)
		}
	}
}

func TestElabDivisionByZeroParamNotConstant(t *testing.T) {
	wantCategory(t, `
module m #(parameter Z = 0) (input x, output y);
	localparam BAD = 4 / Z;
	assign y = x;
endmodule`, diag.CatNonConstantExpr)
}

func TestElabIndexedPartSelectWidthChecks(t *testing.T) {
	// Width larger than the vector is an error; a constant, in-range
	// width is clean.
	wantCategory(t, `
module m(input [7:0] in, input [2:0] b, output [15:0] y);
	assign y = in[b +: 16];
endmodule`, diag.CatIndexOutOfRange)
	wantClean(t, `
module m2(input [15:0] in, input [3:0] b, output [3:0] y);
	assign y = in[b -: 4];
endmodule`)
}

func TestElabNonConstantPartSelectBounds(t *testing.T) {
	wantCategory(t, `
module m(input [7:0] in, input [2:0] b, output [3:0] y);
	assign y = in[b:0];
endmodule`, diag.CatNonConstantExpr)
}

func TestElabSignalQueries(t *testing.T) {
	d := wantClean(t, `
module m(input clk, input [7:0] d, output reg [7:0] q);
	wire [3:0] t1;
	integer i;
	always @(posedge clk) q <= d;
endmodule`)
	if !d.Signal("q").IsVariable() || d.Signal("t1").IsVariable() {
		t.Error("IsVariable wrong")
	}
	if !d.Signal("i").IsVariable() {
		t.Error("integer must be a variable")
	}
	if d.Signal("t1").Width() != 4 {
		t.Error("width wrong")
	}
	if !d.Signal("d").InRange(7) || d.Signal("d").InRange(8) {
		t.Error("InRange wrong")
	}
}

func TestElabParamWithoutValue(t *testing.T) {
	file, pd := verilog.Parse(`
module m #(parameter N) (input x, output y);
	assign y = x;
endmodule`)
	_ = pd // the parser flags the missing '='; sema must not panic either way
	_, diags := Elaborate(file)
	_ = diags
}

// TestElabMultipleDriverWarningOrder pins the order of same-position
// driver warnings: one assign driving a concatenation twice warns for
// each part in first-drive order, not in map iteration order (the
// order reaches compile logs, and through them repair transcripts).
func TestElabMultipleDriverWarningOrder(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{`
module m(input [1:0] a, output cout, output sum);
	assign {cout, sum} = a + 1'b1;
	assign {cout, sum} = a - 1'b1;
endmodule`, "cout sum"},
		{`
module m(input clk, input [1:0] a, output reg hi, output reg lo);
	always @(posedge clk) {hi, lo} <= a;
	always @(negedge clk) {hi, lo} <= ~a;
endmodule`, "hi lo"},
	} {
		for i := 0; i < 20; i++ {
			_, diags := elab(t, tc.src)
			var got []string
			for _, d := range diags.Warnings() {
				if d.Category == diag.CatMultipleDrivers {
					got = append(got, d.Symbol)
				}
			}
			if strings.Join(got, " ") != tc.want {
				t.Fatalf("run %d: multiple-driver warnings for %v, want [%s]", i, got, tc.want)
			}
		}
	}
}

// TestSignalWidthLimit: a range wider than MaxSignalBits is a typed
// resource-limit error wherever it is declared (ANSI port, body
// declaration, block-local variable); the limit itself is accepted, and
// the design is still returned for the analyzer.
func TestSignalWidthLimit(t *testing.T) {
	wantClean(t, "module m(input [65535:0] a, output [0:65535] y);\n\tassign y = a;\nendmodule")
	for _, src := range []string{
		"module top_module(input clk, output reg [1999999999:0] q);\n\talways @(posedge clk) q <= ~q;\nendmodule",
		"module m(input a, output y);\n\treg [-1:65535] big;\n\tassign y = a;\nendmodule",
		"module m(input a, output reg y);\n\talways @(*) begin : b\n\t\treg [65536:0] t;\n\t\ty = a;\n\tend\nendmodule",
	} {
		for _, d := range wantCategory(t, src, diag.CatResourceLimit) {
			if d.Category == diag.CatResourceLimit && !strings.Contains(d.Message, "over the limit of 65536 bits") {
				t.Errorf("limit diagnostic does not name the bound: %s", d.Message)
			}
		}
		if d, _ := elab(t, src); d == nil {
			t.Error("design dropped on a resource-limit error")
		}
	}
}

// TestElabUnknownParamReportedOnce: a parameter with no constant value
// gets one error; its later uses resolve to a declared parameter of
// unknown value, so they add no undeclared-identifier error and no width
// warning, and it stays unassignable.
func TestElabUnknownParamReportedOnce(t *testing.T) {
	_, diags := elab(t, `
module top_module(input clk, output reg [7:0] q);
	localparam P = {2000000000{1'b1}};
	always @(posedge clk) q <= P;
endmodule`)
	if errs := diags.Errors(); len(errs) != 1 || errs[0].Category != diag.CatNonConstantExpr {
		t.Fatalf("want exactly one non-constant-parameter error, got: %s", diags.Summary())
	}
	if w := diags.Warnings(); len(w) != 0 {
		t.Fatalf("an unknown-valued parameter added warnings: %s", diags.Summary())
	}
	diags = wantCategory(t, `
module m(input a, output y);
	localparam Q = a;
	assign y = Q[3] & a;
	always @(*) Q = a;
endmodule`, diag.CatInvalidLValue)
	for _, d := range diags {
		if d.Category == diag.CatUndeclaredIdent {
			t.Fatalf("use of an unknown-valued parameter reported undeclared: %s", diags.Summary())
		}
	}
}

// manySignals is the 969 KB hostile request: n registers of 2^16 bits
// each, every one within MaxSignalBits, plus whatever extra declares.
func manySignals(n int, extra string) string {
	var b strings.Builder
	b.WriteString("module top_module(input clk, output y);\n\treg [65535:0] s0")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, ", s%d", i)
	}
	b.WriteString(";\n" + extra + "\tassign y = clk;\nendmodule\n")
	return b.String()
}

// TestDesignBitsLimit: signals that each fit MaxSignalBits but together
// declare more than MaxDesignBits of state are one typed resource-limit
// error at the module header. 120000 registers of 2^16 bits (about a
// gigabyte of state in under 1 MiB of source) are refused; exactly
// MaxDesignBits is accepted.
func TestDesignBitsLimit(t *testing.T) {
	// 2 + 15×65536 + 65534 = 2^20 bits
	wantClean(t, manySignals(15, "\treg [65533:0] t;\n"))

	src := manySignals(120000, "")
	if len(src) < 900<<10 || len(src) > 1<<20 {
		t.Fatalf("hostile source is %d bytes, want the ~969 KB request", len(src))
	}
	var limits diag.List
	for _, d := range wantCategory(t, src, diag.CatResourceLimit) {
		if d.Category == diag.CatResourceLimit {
			limits = append(limits, d)
		}
	}
	if len(limits) != 1 || limits[0].Pos.Line != 1 ||
		!strings.Contains(limits[0].Message, "7864320002 bits of signal state, over the limit of 1048576 bits per design") {
		t.Fatalf("want one design-bits error at the header, got %s", limits.Summary())
	}
}

// TestClog2TopOfRange elaborates $clog2 of constants at the top of the
// 64-bit range within a deadline: the doubling loop the folder once ran
// never ended above 2^63, hanging vlint, /v1/lint and /v1/fix.
func TestClog2TopOfRange(t *testing.T) {
	cases := map[string]uint64{
		"64'd0": 0, "64'd1": 0, "64'd2": 1, "64'd3": 2,
		"64'h8000000000000000": 63, "64'h8000000000000001": 64, "64'hFFFFFFFFFFFFFFFF": 64,
	}
	for lit, want := range cases {
		done := make(chan *Design, 1)
		go func() {
			file, _ := verilog.Parse("module m(output [31:0] y);\n\tlocalparam P = $clog2(" + lit + ");\n\tassign y = P;\nendmodule\n")
			d, _ := Elaborate(file)
			done <- d
		}()
		select {
		case d := <-done:
			if got := d.Params["P"].Uint64(); got != want {
				t.Errorf("$clog2(%s) = %d, want %d", lit, got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("$clog2(%s) did not elaborate within 10s", lit)
		}
	}
}

// TestDesignConstInt is the folder analyze reads: it folds what the
// elaborator accepts in parameter values — $clog2, shifts, ternaries —
// with 32-bit wraparound, reading only Design.Params.
func TestDesignConstInt(t *testing.T) {
	d := wantClean(t, `
module m #(parameter N = 16) (input x, output y);
	assign y = x;
endmodule`)
	cases := map[string]struct {
		want int
		ok   bool
	}{
		"$clog2(N)":         {4, true},
		"$clog2(N) - 1":     {3, true},
		"N >> 2":            {4, true},
		"1 << 4":            {16, true},
		"N > 8 ? N : 8":     {16, true},
		"0 - 1":             {-1, true},
		"N / 0":             {0, false},
		"M":                 {0, false},
		"64'h100000000":     {0, false},
		"(N * 2) % 5":       {2, true},
		"~0":                {-1, true},
		"$clog2(N + 1) * 2": {10, true},
		// A shift count is unsigned: 2^63 and up shift every bit out
		// (2^63 once recursed without end, 2^64-1 shifted the other way),
		// and so does a count with a bit above the low 64.
		"1 << 64'h8000000000000000":  {0, true},
		"4 >> 64'hFFFFFFFFFFFFFFFF":  {0, true},
		"1 << 65'h10000000000000000": {0, true},
	}
	for src, tc := range cases {
		file, diags := verilog.Parse("module t; localparam Q = " + src + "; endmodule")
		if diags.HasErrors() {
			t.Fatalf("%s: %s", src, diags.Summary())
		}
		x := file.Modules[0].Items[0].(*verilog.ParamDecl).Names[0].Init
		got, ok := d.ConstInt(x)
		if got != tc.want || ok != tc.ok {
			t.Errorf("ConstInt(%s) = %d, %v; want %d, %v", src, got, ok, tc.want, tc.ok)
		}
	}
}

// TestStaticWidthScope pins the width rule sema's width check uses: at
// module scope (StaticWidth) a parameter is 32 bits and a block local
// is unknown; the elaborator runs the same rule with its locals in
// scope, so an assignment to a narrower local warns.
func TestStaticWidthScope(t *testing.T) {
	src := `
module m #(parameter W = 4) (input [7:0] a, output reg [7:0] y);
	always @(*) begin : blk
		reg [3:0] t;
		t = a;
		y = {a[W-1:0], a[$clog2(W*4)-1:0]};
	end
endmodule`
	d, diags := elab(t, src)
	var widths []string
	for _, dg := range diags {
		if dg.Category == diag.CatWidthMismatch {
			widths = append(widths, fmt.Sprintf("%d: %s", dg.Pos.Line, dg.Message))
		}
	}
	if want := []string{"5: assignment target is 4 bits but expression is 8 bits"}; fmt.Sprint(widths) != fmt.Sprint(want) {
		t.Fatalf("width warnings = %q, want %q", widths, want)
	}
	for _, tc := range []struct {
		name string
		x    verilog.Expr
		want int
		ok   bool
	}{
		{"param", &verilog.Ident{Name: "W"}, 32, true},
		{"local", &verilog.Ident{Name: "t"}, 0, false},
		{"port", &verilog.Ident{Name: "a"}, 8, true},
		{"number", &verilog.Number{Text: "8'hFF"}, 0, false},
	} {
		got, ok := d.StaticWidth(tc.x)
		if got != tc.want || ok != tc.ok {
			t.Errorf("StaticWidth(%s) = %d, %v; want %d, %v", tc.name, got, ok, tc.want, tc.ok)
		}
	}
}
