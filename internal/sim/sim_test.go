package sim

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/sema"
	"repro/internal/verilog"
)

func buildDesign(t *testing.T, src string) *sema.Design {
	t.Helper()
	file, pd := verilog.Parse(src)
	if pd.HasErrors() {
		t.Fatalf("parse errors: %s", pd.Summary())
	}
	d, ed := sema.Elaborate(file)
	if ed.HasErrors() {
		t.Fatalf("elab errors: %s", ed.Summary())
	}
	return d
}

func newSim(t *testing.T, src string) *Simulator {
	t.Helper()
	s, err := New(buildDesign(t, src))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSimAssignNot(t *testing.T) {
	s := newSim(t, `
module m(input [7:0] in, output [7:0] out);
	assign out = ~in;
endmodule`)
	if err := s.SetInputUint("in", 0xA5); err != nil {
		t.Fatal(err)
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if got := s.Get("out").Uint64(); got != 0x5A {
		t.Fatalf("~0xA5 = %#x, want 0x5a", got)
	}
}

func TestSimAdderWithCarry(t *testing.T) {
	s := newSim(t, `
module add(input [7:0] a, input [7:0] b, input cin, output [7:0] sum, output cout);
	assign {cout, sum} = a + b + cin;
endmodule`)
	s.SetInputUint("a", 200)
	s.SetInputUint("b", 100)
	s.SetInputUint("cin", 1)
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if got := s.Get("sum").Uint64(); got != (301 & 0xFF) {
		t.Fatalf("sum = %d, want %d", got, 301&0xFF)
	}
	if got := s.Get("cout").Uint64(); got != 1 {
		t.Fatalf("cout = %d, want 1", got)
	}
}

func TestSimMux(t *testing.T) {
	s := newSim(t, `
module mux(input [7:0] a, input [7:0] b, input sel, output [7:0] y);
	assign y = sel ? b : a;
endmodule`)
	s.SetInputUint("a", 11)
	s.SetInputUint("b", 22)
	s.SetInputUint("sel", 0)
	s.Settle()
	if got := s.Get("y").Uint64(); got != 11 {
		t.Fatalf("y = %d, want 11", got)
	}
	s.SetInputUint("sel", 1)
	s.Settle()
	if got := s.Get("y").Uint64(); got != 22 {
		t.Fatalf("y = %d, want 22", got)
	}
}

func TestSimBitReverseForLoop(t *testing.T) {
	// The paper's running example: reverse bit order with a for loop.
	s := newSim(t, `
module top_module(input [7:0] in, output reg [7:0] out);
	integer i;
	always @(*) begin
		for (i = 0; i < 8; i = i + 1)
			out[i] = in[7 - i];
	end
endmodule`)
	s.SetInputUint("in", 0b1101_0010)
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if got := s.Get("out").Uint64(); got != 0b0100_1011 {
		t.Fatalf("out = %08b, want 01001011", got)
	}
}

func TestSimWide100BitReverse(t *testing.T) {
	s := newSim(t, `
module top_module(input [99:0] in, output reg [99:0] out);
	always @(*) begin
		for (int i = 0; i < 100; i = i + 1)
			out[i] = in[99 - i];
	end
endmodule`)
	in := bitvec.New(100).SetBit(0, true).SetBit(42, true)
	if err := s.SetInput("in", in); err != nil {
		t.Fatal(err)
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	out := s.Get("out")
	if !out.Bit(99) || !out.Bit(57) || out.PopCount() != 2 {
		t.Fatalf("100-bit reverse wrong: %s", out.Hex())
	}
}

func TestSimDFF(t *testing.T) {
	s := newSim(t, `
module dff(input clk, input d, output reg q);
	always @(posedge clk) q <= d;
endmodule`)
	s.SetInputUint("d", 1)
	s.Settle()
	if got := s.Get("q").Uint64(); got != 0 {
		t.Fatal("q must not change before the clock edge")
	}
	if err := s.ClockPulse("clk"); err != nil {
		t.Fatal(err)
	}
	if got := s.Get("q").Uint64(); got != 1 {
		t.Fatalf("q = %d after posedge, want 1", got)
	}
}

func TestSimCounterSyncReset(t *testing.T) {
	s := newSim(t, `
module counter(input clk, input reset, output reg [3:0] q);
	always @(posedge clk) begin
		if (reset)
			q <= 0;
		else
			q <= q + 1;
	end
endmodule`)
	s.SetInputUint("reset", 1)
	s.ClockPulse("clk")
	if got := s.Get("q").Uint64(); got != 0 {
		t.Fatalf("q = %d after reset, want 0", got)
	}
	s.SetInputUint("reset", 0)
	for i := 0; i < 5; i++ {
		s.ClockPulse("clk")
	}
	if got := s.Get("q").Uint64(); got != 5 {
		t.Fatalf("q = %d after 5 clocks, want 5", got)
	}
	// wraparound
	for i := 0; i < 12; i++ {
		s.ClockPulse("clk")
	}
	if got := s.Get("q").Uint64(); got != 1 {
		t.Fatalf("q = %d after 17 clocks, want 1 (4-bit wrap)", got)
	}
}

func TestSimAsyncReset(t *testing.T) {
	s := newSim(t, `
module areg(input clk, input areset, input d, output reg q);
	always @(posedge clk or posedge areset) begin
		if (areset)
			q <= 0;
		else
			q <= d;
	end
endmodule`)
	s.SetInputUint("d", 1)
	s.ClockPulse("clk")
	if got := s.Get("q").Uint64(); got != 1 {
		t.Fatalf("q = %d, want 1", got)
	}
	// async reset without a clock edge
	s.SetInputUint("areset", 1)
	if got := s.Get("q").Uint64(); got != 0 {
		t.Fatalf("q = %d after async reset, want 0", got)
	}
}

func TestSimNonBlockingSwap(t *testing.T) {
	// The classic NBA test: two registers swap through <= without a race.
	s := newSim(t, `
module swap(input clk, input load, input [3:0] ain, input [3:0] bin,
            output reg [3:0] a, output reg [3:0] b);
	always @(posedge clk) begin
		if (load) begin
			a <= ain;
			b <= bin;
		end else begin
			a <= b;
			b <= a;
		end
	end
endmodule`)
	s.SetInputUint("load", 1)
	s.SetInputUint("ain", 3)
	s.SetInputUint("bin", 9)
	s.ClockPulse("clk")
	s.SetInputUint("load", 0)
	s.ClockPulse("clk")
	if a, b := s.Get("a").Uint64(), s.Get("b").Uint64(); a != 9 || b != 3 {
		t.Fatalf("after swap a=%d b=%d, want 9 3", a, b)
	}
}

func TestSimFSMTwoAlways(t *testing.T) {
	s := newSim(t, `
module fsm(input clk, input rst, input in, output out);
	reg [1:0] state, next;
	always @(posedge clk) begin
		if (rst) state <= 2'b00;
		else state <= next;
	end
	always @(*) begin
		case (state)
			2'b00: next = in ? 2'b01 : 2'b00;
			2'b01: next = in ? 2'b01 : 2'b10;
			2'b10: next = in ? 2'b01 : 2'b00;
			default: next = 2'b00;
		endcase
	end
	assign out = state == 2'b10;
endmodule`)
	s.SetInputUint("rst", 1)
	s.ClockPulse("clk")
	s.SetInputUint("rst", 0)
	// in=1 -> S1, in=0 -> S2 (out high)
	s.SetInputUint("in", 1)
	s.ClockPulse("clk")
	s.SetInputUint("in", 0)
	s.ClockPulse("clk")
	if got := s.Get("out").Uint64(); got != 1 {
		t.Fatalf("FSM out = %d, want 1", got)
	}
}

func TestSimCasez(t *testing.T) {
	s := newSim(t, `
module pri(input [3:0] in, output reg [1:0] pos);
	always @(*) begin
		casez (in)
			4'b0001: pos = 0;
			4'b0010: pos = 1;
			4'b0100: pos = 2;
			4'b1000: pos = 3;
			default: pos = 0;
		endcase
	end
endmodule`)
	s.SetInputUint("in", 4)
	s.Settle()
	if got := s.Get("pos").Uint64(); got != 2 {
		t.Fatalf("pos = %d, want 2", got)
	}
}

func TestSimPartSelectWrite(t *testing.T) {
	s := newSim(t, `
module ps(input [7:0] lo, input [7:0] hi, output reg [15:0] word);
	always @(*) begin
		word[7:0] = lo;
		word[15:8] = hi;
	end
endmodule`)
	s.SetInputUint("lo", 0xCD)
	s.SetInputUint("hi", 0xAB)
	s.Settle()
	if got := s.Get("word").Uint64(); got != 0xABCD {
		t.Fatalf("word = %#x, want 0xabcd", got)
	}
}

func TestSimIndexedPartSelect(t *testing.T) {
	s := newSim(t, `
module ips(input [31:0] in, input [4:0] sel, output [7:0] y);
	assign y = in[sel +: 8];
endmodule`)
	s.SetInput("in", bitvec.FromUint64(32, 0xDEADBEEF))
	s.SetInputUint("sel", 8)
	s.Settle()
	if got := s.Get("y").Uint64(); got != 0xBE {
		t.Fatalf("y = %#x, want 0xbe", got)
	}
}

func TestSimReductionOps(t *testing.T) {
	s := newSim(t, `
module red(input [3:0] in, output pand, output por, output pxor);
	assign pand = &in;
	assign por = |in;
	assign pxor = ^in;
endmodule`)
	s.SetInputUint("in", 0b0111)
	s.Settle()
	if s.Get("pand").Uint64() != 0 || s.Get("por").Uint64() != 1 || s.Get("pxor").Uint64() != 1 {
		t.Fatalf("reductions wrong: and=%d or=%d xor=%d",
			s.Get("pand").Uint64(), s.Get("por").Uint64(), s.Get("pxor").Uint64())
	}
}

func TestSimCombinationalLoopDetected(t *testing.T) {
	s := newSim(t, `
module osc(input en, output y);
	wire a;
	assign a = en & ~y;
	assign y = a;
endmodule`)
	s.SetInputUint("en", 1)
	if err := s.Settle(); err == nil {
		t.Fatal("oscillating loop must be reported")
	}
}

func TestSimShiftRegister(t *testing.T) {
	s := newSim(t, `
module sr(input clk, input in, output reg [3:0] q);
	always @(posedge clk)
		q <= {q[2:0], in};
endmodule`)
	bits := []uint64{1, 0, 1, 1}
	for _, b := range bits {
		s.SetInputUint("in", b)
		s.ClockPulse("clk")
	}
	if got := s.Get("q").Uint64(); got != 0b1011 {
		t.Fatalf("q = %04b, want 1011", got)
	}
}

func TestSimDeclInit(t *testing.T) {
	s := newSim(t, `
module di(input a, output y);
	wire inv = ~a;
	assign y = inv;
endmodule`)
	s.SetInputUint("a", 0)
	s.Settle()
	if got := s.Get("y").Uint64(); got != 1 {
		t.Fatalf("y = %d, want 1", got)
	}
}

func TestSimRuntimeOOBReadsZero(t *testing.T) {
	s := newSim(t, `
module oob(input [7:0] in, input [3:0] sel, output y);
	assign y = in[sel];
endmodule`)
	s.SetInputUint("in", 0xFF)
	s.SetInputUint("sel", 12) // beyond [7:0]
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if got := s.Get("y").Uint64(); got != 0 {
		t.Fatalf("out-of-range read = %d, want 0", got)
	}
}

// ---------- testbench runner ----------

// modelCtrSrc is the reference for the counter tests: the same
// behaviour as ctrSrc, written as an explicit next-state function.
const modelCtrSrc = `
module counter(input clk, input reset, output reg [3:0] q);
	wire [3:0] next = reset ? 4'd0 : q + 4'd1;
	always @(posedge clk) q <= next;
endmodule`

func counterVectors(n int) []Vector {
	vectors := []Vector{{Inputs: map[string]bitvec.Vec{"reset": bitvec.FromUint64(1, 1)}}}
	for i := 0; i < n; i++ {
		vectors = append(vectors, Vector{Inputs: map[string]bitvec.Vec{"reset": bitvec.FromUint64(1, 0)}})
	}
	return vectors
}

func TestRunTestbenchCounter(t *testing.T) {
	res, err := runAgainst(t, ctrSrc, modelCtrSrc, "clk", counterVectors(20))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() || res.Cycles != 21 {
		t.Fatalf("counter failed testbench: %+v", res)
	}
}

func TestRunTestbenchDetectsWrongLogic(t *testing.T) {
	// A decrementing counter must fail the incrementing reference.
	res, err := runAgainst(t, `
module counter(input clk, input reset, output reg [3:0] q);
	always @(posedge clk) begin
		if (reset) q <= 0;
		else q <= q - 1;
	end
endmodule`, modelCtrSrc, "clk", counterVectors(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() {
		t.Fatal("wrong logic must produce mismatches")
	}
	// the reset cycle agrees; both counting cycles differ (15 vs 1, 14 vs 2)
	if res.Mismatches != 2 || res.FirstMismatch != "cycle 1: output q = 4'hf, expected 4'h1" {
		t.Fatalf("mismatch accounting: %+v", res)
	}
}

func TestRunTestbenchCombinational(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var vectors []Vector
	for i := 0; i < 50; i++ {
		vectors = append(vectors, Vector{Inputs: map[string]bitvec.Vec{
			"a": bitvec.FromUint64(8, uint64(rng.Intn(256))),
			"b": bitvec.FromUint64(8, uint64(rng.Intn(256))),
		}})
	}
	res, err := runAgainst(t, `
module xorm(input [7:0] a, input [7:0] b, output [7:0] y);
	assign y = a ^ b;
endmodule`, `
module xorm(input [7:0] a, input [7:0] b, output [7:0] y);
	assign y = (a | b) & ~(a & b);
endmodule`, "", vectors)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("xor failed: %+v", res)
	}
}

// TestSimEquivalenceRandomExprs is a property test: randomly generated
// combinational expressions must evaluate identically in the simulator and
// in a direct Go evaluation.
func TestSimEquivalenceRandomExprs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ops := []struct {
		verilog string
		eval    func(a, b uint64) uint64
	}{
		{"&", func(a, b uint64) uint64 { return a & b }},
		{"|", func(a, b uint64) uint64 { return a | b }},
		{"^", func(a, b uint64) uint64 { return a ^ b }},
		{"+", func(a, b uint64) uint64 { return (a + b) & 0xFF }},
		{"-", func(a, b uint64) uint64 { return (a - b) & 0xFF }},
	}
	for i := 0; i < 40; i++ {
		op := ops[rng.Intn(len(ops))]
		src := `
module expr(input [7:0] a, input [7:0] b, output [7:0] y);
	assign y = a ` + op.verilog + ` b;
endmodule`
		s := newSim(t, src)
		for j := 0; j < 20; j++ {
			a, b := uint64(rng.Intn(256)), uint64(rng.Intn(256))
			s.SetInputUint("a", a)
			s.SetInputUint("b", b)
			if err := s.Settle(); err != nil {
				t.Fatal(err)
			}
			want := op.eval(a, b)
			if got := s.Get("y").Uint64(); got != want {
				t.Fatalf("a%sb with a=%d b=%d: got %d want %d", op.verilog, a, b, got, want)
			}
		}
	}
}

func TestSimCasezWildcards(t *testing.T) {
	// A real priority encoder with casez don't-cares: the z digits mask
	// the low bits, so 4'b01?? must match any input with bit 2 as the
	// highest set bit.
	s := newSim(t, `
module pri(input [3:0] in, output reg [1:0] pos, output reg valid);
	always @(*) begin
		valid = 1;
		casez (in)
			4'b1???: pos = 3;
			4'b01??: pos = 2;
			4'b001?: pos = 1;
			4'b0001: pos = 0;
			default: begin pos = 0; valid = 0; end
		endcase
	end
endmodule`)
	cases := []struct{ in, pos, valid uint64 }{
		{0b1010, 3, 1}, {0b0110, 2, 1}, {0b0011, 1, 1}, {0b0001, 0, 1}, {0b0000, 0, 0},
	}
	for _, c := range cases {
		s.SetInputUint("in", c.in)
		if err := s.Settle(); err != nil {
			t.Fatal(err)
		}
		if got := s.Get("pos").Uint64(); got != c.pos {
			t.Errorf("in=%04b: pos=%d want %d", c.in, got, c.pos)
		}
		if got := s.Get("valid").Uint64(); got != c.valid {
			t.Errorf("in=%04b: valid=%d want %d", c.in, got, c.valid)
		}
	}
}

func TestSimCasexWildcardsIncludeX(t *testing.T) {
	s := newSim(t, `
module cx(input [3:0] in, output reg hit);
	always @(*) begin
		casex (in)
			4'b1xx1: hit = 1;
			default: hit = 0;
		endcase
	end
endmodule`)
	s.SetInputUint("in", 0b1011)
	s.Settle()
	if s.Get("hit").Uint64() != 1 {
		t.Fatal("casex x-digits must be don't-care")
	}
	s.SetInputUint("in", 0b1010)
	s.Settle()
	if s.Get("hit").Uint64() != 0 {
		t.Fatal("non-wildcard bits must still be compared")
	}
}

func TestSimPlainCaseNoWildcards(t *testing.T) {
	// In a plain case statement, z/? digits decode as 0 and match
	// literally — no wildcard semantics.
	s := newSim(t, `
module pc(input [3:0] in, output reg hit);
	always @(*) begin
		case (in)
			4'b10?0: hit = 1;
			default: hit = 0;
		endcase
	end
endmodule`)
	s.SetInputUint("in", 0b1010)
	s.Settle()
	if s.Get("hit").Uint64() != 0 {
		t.Fatal("plain case must not treat ? as wildcard")
	}
	s.SetInputUint("in", 0b1000)
	s.Settle()
	if s.Get("hit").Uint64() != 1 {
		t.Fatal("? decodes as 0 in plain case")
	}
}

func TestSimAllBinaryOperators(t *testing.T) {
	// Exhaustive operator matrix against direct Go evaluation at 8 bits.
	ops := []struct {
		op   string
		eval func(a, b uint64) uint64
	}{
		{"+", func(a, b uint64) uint64 { return (a + b) & 0xFF }},
		{"-", func(a, b uint64) uint64 { return (a - b) & 0xFF }},
		{"*", func(a, b uint64) uint64 { return (a * b) & 0xFF }},
		{"/", func(a, b uint64) uint64 {
			if b == 0 {
				return 0
			}
			return a / b
		}},
		{"%", func(a, b uint64) uint64 {
			if b == 0 {
				return 0
			}
			return a % b
		}},
		{"&", func(a, b uint64) uint64 { return a & b }},
		{"|", func(a, b uint64) uint64 { return a | b }},
		{"^", func(a, b uint64) uint64 { return a ^ b }},
		{"~^", func(a, b uint64) uint64 { return ^(a ^ b) & 0xFF }},
		{"==", func(a, b uint64) uint64 { return b2u(a == b) }},
		{"!=", func(a, b uint64) uint64 { return b2u(a != b) }},
		{"<", func(a, b uint64) uint64 { return b2u(a < b) }},
		{">", func(a, b uint64) uint64 { return b2u(a > b) }},
		{"<=", func(a, b uint64) uint64 { return b2u(a <= b) }},
		{">=", func(a, b uint64) uint64 { return b2u(a >= b) }},
		{"&&", func(a, b uint64) uint64 { return b2u(a != 0 && b != 0) }},
		{"||", func(a, b uint64) uint64 { return b2u(a != 0 || b != 0) }},
	}
	vectors := []struct{ a, b uint64 }{
		{0, 0}, {1, 0}, {0, 1}, {255, 255}, {170, 85}, {7, 3}, {200, 100},
	}
	for _, op := range ops {
		width := "[7:0] "
		if op.op == "==" || op.op == "!=" || op.op == "<" || op.op == ">" ||
			op.op == "<=" || op.op == ">=" || op.op == "&&" || op.op == "||" {
			width = ""
		}
		src := "module e(input [7:0] a, input [7:0] b, output " + width + "y);\n" +
			"\tassign y = a " + op.op + " b;\nendmodule"
		s := newSim(t, src)
		for _, v := range vectors {
			s.SetInputUint("a", v.a)
			s.SetInputUint("b", v.b)
			if err := s.Settle(); err != nil {
				t.Fatalf("%s: %v", op.op, err)
			}
			want := op.eval(v.a, v.b)
			if width == "" {
				want &= 1
			}
			if got := s.Get("y").Uint64(); got != want {
				t.Errorf("a %s b with a=%d b=%d: got %d want %d", op.op, v.a, v.b, got, want)
			}
		}
	}
}

func b2u(c bool) uint64 {
	if c {
		return 1
	}
	return 0
}

func TestSimAllUnaryOperators(t *testing.T) {
	ops := []struct {
		op   string
		eval func(a uint64) uint64
	}{
		{"~", func(a uint64) uint64 { return ^a & 0xF }},
		{"-", func(a uint64) uint64 { return (-a) & 0xF }},
		{"!", func(a uint64) uint64 { return b2u(a == 0) }},
		{"&", func(a uint64) uint64 { return b2u(a == 0xF) }},
		{"|", func(a uint64) uint64 { return b2u(a != 0) }},
		{"^", func(a uint64) uint64 { return uint64(popcount4(a) & 1) }},
		{"~&", func(a uint64) uint64 { return b2u(a != 0xF) }},
		{"~|", func(a uint64) uint64 { return b2u(a == 0) }},
		{"~^", func(a uint64) uint64 { return uint64(popcount4(a)&1) ^ 1 }},
	}
	for _, op := range ops {
		width := "[3:0] "
		if op.op != "~" && op.op != "-" {
			width = ""
		}
		src := "module u(input [3:0] a, output " + width + "y);\n\tassign y = " + op.op + "a;\nendmodule"
		s := newSim(t, src)
		for a := uint64(0); a < 16; a++ {
			s.SetInputUint("a", a)
			if err := s.Settle(); err != nil {
				t.Fatal(err)
			}
			if got := s.Get("y").Uint64(); got != op.eval(a) {
				t.Errorf("%sa with a=%d: got %d want %d", op.op, a, got, op.eval(a))
			}
		}
	}
}

func popcount4(a uint64) int {
	n := 0
	for i := 0; i < 4; i++ {
		if a>>i&1 == 1 {
			n++
		}
	}
	return n
}

func TestSimShiftOperators(t *testing.T) {
	s := newSim(t, `
module sh(input [7:0] a, input [2:0] n, output [7:0] l, output [7:0] r, output [7:0] al);
	assign l = a << n;
	assign r = a >> n;
	assign al = a <<< n;
endmodule`)
	s.SetInputUint("a", 0b1001_0110)
	s.SetInputUint("n", 3)
	s.Settle()
	if got := s.Get("l").Uint64(); got != (0b1001_0110<<3)&0xFF {
		t.Errorf("<<: %08b", got)
	}
	if got := s.Get("r").Uint64(); got != 0b1001_0110>>3 {
		t.Errorf(">>: %08b", got)
	}
	if got := s.Get("al").Uint64(); got != (0b1001_0110<<3)&0xFF {
		t.Errorf("<<<: %08b", got)
	}
}

func TestSimSystemFunctions(t *testing.T) {
	s := newSim(t, `
module sf(input [7:0] a, output [7:0] s, output [7:0] u, output [5:0] ones);
	assign s = $signed(a);
	assign u = $unsigned(a);
	assign ones = $countones(a);
endmodule`)
	s.SetInputUint("a", 0b1011_0101)
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if s.Get("s").Uint64() != 0b1011_0101 || s.Get("u").Uint64() != 0b1011_0101 {
		t.Error("$signed/$unsigned must pass through in two-state mode")
	}
	if got := s.Get("ones").Uint64(); got != 5 {
		t.Errorf("$countones = %d, want 5", got)
	}
}

func TestSimReset(t *testing.T) {
	s := newSim(t, `
module r(input clk, output reg [3:0] q);
	always @(posedge clk) q <= q + 1;
endmodule`)
	for i := 0; i < 5; i++ {
		s.ClockPulse("clk")
	}
	if s.Get("q").Uint64() != 5 {
		t.Fatalf("q = %d", s.Get("q").Uint64())
	}
	s.Reset()
	if s.Get("q").Uint64() != 0 {
		t.Fatal("Reset must zero state")
	}
	// clk was also reset to 0, so pulses keep working
	s.ClockPulse("clk")
	if s.Get("q").Uint64() != 1 {
		t.Fatal("post-reset clocking broken")
	}
}

func TestSimTernaryChain(t *testing.T) {
	s := newSim(t, `
module tc(input [1:0] sel, output [3:0] y);
	assign y = sel == 0 ? 4'd1 : sel == 1 ? 4'd5 : sel == 2 ? 4'd9 : 4'd15;
endmodule`)
	want := []uint64{1, 5, 9, 15}
	for sel := uint64(0); sel < 4; sel++ {
		s.SetInputUint("sel", sel)
		s.Settle()
		if got := s.Get("y").Uint64(); got != want[sel] {
			t.Errorf("sel=%d: y=%d want %d", sel, got, want[sel])
		}
	}
}

func TestSimReplicationInExpression(t *testing.T) {
	s := newSim(t, `
module rep(input b, output [7:0] y);
	assign y = {8{b}};
endmodule`)
	s.SetInputUint("b", 1)
	s.Settle()
	if s.Get("y").Uint64() != 0xFF {
		t.Fatal("replication broadcast failed")
	}
}

func TestSimConcatLHSStatement(t *testing.T) {
	s := newSim(t, `
module cl(input [3:0] a, input [3:0] b, output reg [3:0] sum, output reg carry);
	always @(*)
		{carry, sum} = a + b;
endmodule`)
	s.SetInputUint("a", 9)
	s.SetInputUint("b", 8)
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if s.Get("sum").Uint64() != 1 || s.Get("carry").Uint64() != 1 {
		t.Fatalf("sum=%d carry=%d", s.Get("sum").Uint64(), s.Get("carry").Uint64())
	}
}

func TestSimMinusIndexedPartSelect(t *testing.T) {
	s := newSim(t, `
module mps(input [15:0] in, input [3:0] base, output [3:0] y);
	assign y = in[base -: 4];
endmodule`)
	s.SetInputUint("in", 0xABCD)
	s.SetInputUint("base", 11) // bits 11..8 -> 0xB
	s.Settle()
	if got := s.Get("y").Uint64(); got != 0xB {
		t.Fatalf("y = %#x, want 0xb", got)
	}
}
