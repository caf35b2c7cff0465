package sim

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/diag"
)

// diffBoth runs src through the shared differential path (diff.go) and
// fails on any walker-vs-engine disagreement.
func diffBoth(t *testing.T, src, clock string, count int, seed int64) {
	t.Helper()
	rep, err := DiffSource(src, DiffConfig{Clock: clock, Cycles: count, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diverged() {
		t.Fatalf("divergence: %s", rep.First())
	}
}

func TestEngineMicroDifferential(t *testing.T) {
	cases := []struct {
		name  string
		clock string
		src   string
	}{
		{"ascending_range", "", `
module ar(input [0:7] in, input [2:0] sel, output out, output [0:3] hi);
	assign out = in[sel];
	assign hi = in[0:3];
endmodule`},
		{"nonzero_lsb", "", `
module nz(input [11:4] in, input [3:0] sel, output bit7, output dynbit, output [3:0] mid);
	assign bit7 = in[7];
	assign dynbit = in[sel];
	assign mid = in[11:8];
endmodule`},
		{"nba_loop_index", "clk", `
module nl(input clk, input [7:0] d, output reg [7:0] q);
	integer i;
	always @(posedge clk)
		for (i = 0; i < 8; i = i + 1)
			q[i] <= d[7 - i];
endmodule`},
		{"dynamic_minus_select", "", `
module dm(input [15:0] in, input [3:0] base, output [3:0] y);
	assign y = in[base -: 4];
endmodule`},
		{"dynamic_slice_store", "", `
module ds(input [7:0] d, input [2:0] pos, output reg [15:0] word);
	always @(*) begin
		word = 0;
		word[pos +: 8] = d;
	end
endmodule`},
		{"chained_comb_blocks", "", `
module cc(input [7:0] a, output [7:0] y);
	wire [7:0] t1, t2;
	assign t2 = t1 ^ 8'h0F;
	assign t1 = a + 1;
	assign y = t2 | t1;
endmodule`},
		{"two_always_fsm", "clk", `
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
			default: next = 2'b00;
		endcase
	end
	assign out = state == 2'b10;
endmodule`},
		{"params_and_widths", "", `
module pw(input [7:0] a, output [7:0] y, output [3:0] z);
	parameter W = 4;
	localparam MASK = (1 << W) - 1;
	assign y = (a >> W) + MASK;
	assign z = a[W +: 4];
endmodule`},
		{"blocking_chain_in_always", "", `
module bc(input [7:0] a, output reg [7:0] y);
	reg [7:0] t;
	always @(*) begin
		t = a ^ 8'hAA;
		t = t + 1;
		y = t;
	end
endmodule`},
		{"mixed_width_ternary_assign", "", `
module mt(input [7:0] in, output [7:0] out);
	assign out = in[7] ? (~in + 1) : in;
endmodule`},
		{"concat_lhs_nba", "clk", `
module cn(input clk, input [7:0] a, input [7:0] b,
          output reg [7:0] hi, output reg [7:0] lo);
	always @(posedge clk)
		{hi, lo} <= {a, b} + 16'h0101;
endmodule`},
		{"signed_marker_literals", "", `
module sl(input [7:0] a, output [7:0] y);
	assign y = a + 8'sd4;
endmodule`},
		{"replication_nested", "", `
module rn(input [1:0] p, output [11:0] y);
	assign y = {3{p, 2'b01}};
endmodule`},
		{"async_and_sync_reset", "clk", `
module ar2(input clk, input areset, input d, output reg q, output reg r);
	always @(posedge clk or posedge areset) begin
		if (areset) q <= 0;
		else q <= d;
	end
	always @(posedge clk) r <= q;
endmodule`},
		{"dyn_base_slice_store_carry", "clk", `
module dc(input clk, input [3:0] a, input [3:0] b, input [2:0] sel,
          output reg [15:0] q);
	always @(posedge clk)
		q[sel +: 8] = a + b;
endmodule`},
		{"nested_loops_shared_var", "", `
module nv(input [15:0] in, output reg [4:0] out);
	always @(*) begin
		out = 0;
		for (int i = 0; i < 16; i = i + 1)
		for (int i = 0; i < 16; i = i + 1)
			out = out + in[i];
	end
endmodule`},
		{"redeclared_block_local", "", `
module rb(input [7:0] in, output reg [7:0] a, output reg [7:0] b);
	always @(*) begin : outer
		integer i;
		i = in[3:0];
		a = i + 1;
		begin : inner
			integer i;
			b = i + in[7:4];
		end
	end
endmodule`},
		{"division_and_mod", "", `
module dv(input [7:0] a, input [7:0] b, output [7:0] q, output [7:0] r);
	assign q = a / b;
	assign r = a % b;
endmodule`},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			diffBoth(t, tc.src, tc.clock, 50, 31+int64(len(tc.name)))
		})
	}
}

// TestEngineOscillationMatchesWalker: genuine combinational feedback must
// fail to settle on both backends.
func TestEngineOscillationMatchesWalker(t *testing.T) {
	src := `
module osc(input en, output y);
	wire a;
	assign a = en & ~y;
	assign y = a;
endmodule`
	design := buildDesign(t, src)
	for _, eng := range []Engine{EngineCompiled, EngineWalker} {
		s, err := NewWith(design, eng)
		if err != nil {
			t.Fatalf("engine %d: %v", eng, err)
		}
		s.SetInputUint("en", 1)
		if err := s.Settle(); err == nil {
			t.Fatalf("engine %d: oscillation must be detected", eng)
		}
	}
}

// TestEngineTopoOrderSingleRun: an acyclic design settles in one pass
// regardless of declaration order — the compiled engine's whole point.
// The walker needs multiple rounds for the reversed chain; the engine's
// schedule must still produce the identical result.
func TestEngineTopoOrderSingleRun(t *testing.T) {
	src := `
module chain(input [7:0] a, output [7:0] y);
	wire [7:0] s1, s2, s3;
	assign y  = s3 + 1;
	assign s3 = s2 + 1;
	assign s2 = s1 + 1;
	assign s1 = a + 1;
endmodule`
	diffBoth(t, src, "", 30, 5)
}

// TestEngineAcyclicScheduleRunsOnce: an acyclic design must schedule
// every process as a run-once item — no spurious fixpoint groups from
// misread instruction operands (slot 0 is the alphabetically-first
// signal, so a regression here shows up as sched[i].fixpoint).
func TestEngineAcyclicScheduleRunsOnce(t *testing.T) {
	design := buildDesign(t, `
module ac(input [7:0] b, output [7:0] a, output [7:0] c, output [7:0] d);
	assign a = b + 1;
	assign c = a ^ b;
	assign d = ~c;
endmodule`)
	prog, err := Compile(design)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.sched) != 3 {
		t.Fatalf("want 3 schedule items, got %d", len(prog.sched))
	}
	for i, item := range prog.sched {
		if item.fixpoint {
			t.Errorf("sched[%d] is a fixpoint group; acyclic processes must run once", i)
		}
		if len(item.nodes) != 1 {
			t.Errorf("sched[%d] groups %d nodes", i, len(item.nodes))
		}
	}
}

// TestCompileBoundsProgramState: designs whose expressions need more
// register state than maxProgramBits are rejected at compile time, before
// any instance allocates it: nested replication (8 GiB in 100 bytes) and
// a concatenation chain whose partial results grow quadratically.
func TestCompileBoundsProgramState(t *testing.T) {
	chain := "s" + strings.Repeat(", s", 99)
	for _, src := range []string{
		"module m(input a, output y);\n\twire [7:0] w = {4096{{4096{{4096{a}}}}}};\n\tassign y = w[0];\nendmodule",
		"module m(input [65535:0] s, output y);\n\twire [7:0] w = {" + chain + "};\n\tassign y = w[0];\nendmodule",
	} {
		_, err := Compile(buildDesign(t, src))
		if err == nil || !strings.Contains(err.Error(), "registers need over 4194304 bits of state") {
			t.Errorf("Compile error = %v, want the register-state bound", err)
		}
	}
}

// TestWalkerBoundsExpressionState: the walker, handed a design the
// engine never compiled, refuses the same oversized values at run time
// with a resource-limit diagnostic: a nested replication, a
// concatenation chain, and a conditional whose context width is a
// replication's, each past maxProgramBits. The sizes stay small enough
// (a few megabytes) for a walker without the bound to finish.
func TestWalkerBoundsExpressionState(t *testing.T) {
	chain := "s" + strings.Repeat(", s", 69)
	for _, src := range []string{
		"module m(input a, output y);\n\twire [7:0] w = {4096{{4096{a}}}};\n\tassign y = w[0];\nendmodule",
		"module m(input [65535:0] s, output y);\n\twire [7:0] w = {" + chain + "};\n\tassign y = w[0];\nendmodule",
		"module m(input a, output y);\n\twire [7:0] w = a ? 8'd1 : {4096{{4096{a}}}};\n\tassign y = w[0];\nendmodule",
	} {
		s, err := NewWith(buildDesign(t, src), EngineWalker)
		if err != nil {
			t.Fatal(err)
		}
		err = s.Settle()
		var d diag.Diagnostic
		if !errors.As(err, &d) || d.Category != diag.CatResourceLimit {
			t.Errorf("walker Settle error = %v, want a resource-limit diagnostic", err)
		}
	}
}

// TestNewRejectsDynamicReplication: a design the compiler rejects does
// not simulate. New returns the compile error rather than running the
// design on the walker; only an explicit EngineWalker reaches it.
func TestNewRejectsDynamicReplication(t *testing.T) {
	// dynamic replication count: illegal Verilog, no static width
	src := `
module dr(input [3:0] n, output [7:0] y);
	wire [3:0] w;
	assign w = n;
	assign y = {w{1'b1}};
endmodule`
	design := buildDesign(t, src)
	_, cerr := Compile(design)
	if cerr == nil {
		t.Fatal("dynamic replication must be rejected by the compiler")
	}
	s, err := New(design)
	if err == nil || s != nil {
		t.Fatalf("New = %v, %v; want the compile error", s, err)
	}
	if err.Error() != cerr.Error() {
		t.Fatalf("New error %q, want the compile error %q", err, cerr)
	}
}

// TestResetPreservesWidthsAndInits: the satellite contract — Reset reuses
// storage but keeps declared widths and re-applies declaration
// initializers, on both backends, across repeated resets.
func TestResetPreservesWidthsAndInits(t *testing.T) {
	src := `
module ri(input clk, input [7:0] d, output reg [7:0] q, output [99:0] wide, output y);
	wire inv = ~d[0];
	reg [99:0] acc;
	assign wide = acc;
	assign y = inv;
	always @(posedge clk) begin
		q <= q + d;
		acc <= acc + 1;
	end
endmodule`
	design := buildDesign(t, src)
	for _, eng := range []Engine{EngineCompiled, EngineWalker} {
		s, err := NewWith(design, eng)
		if err != nil {
			t.Fatalf("engine %d: %v", eng, err)
		}
		for round := 0; round < 3; round++ {
			s.SetInputUint("d", 3)
			for i := 0; i < 4; i++ {
				if err := s.ClockPulse("clk"); err != nil {
					t.Fatal(err)
				}
			}
			if got := s.Get("q").Uint64(); got != 12 {
				t.Fatalf("engine %d round %d: q = %d, want 12", eng, round, got)
			}
			if got := s.Get("acc"); got.Width() != 100 || got.Uint64() != 4 {
				t.Fatalf("engine %d round %d: acc = %s", eng, round, got.Hex())
			}
			s.Reset()
			if got := s.Get("q"); got.Width() != 8 || !got.IsZero() {
				t.Fatalf("engine %d round %d: q after reset = %s", eng, round, got.Hex())
			}
			if got := s.Get("acc"); got.Width() != 100 || !got.IsZero() {
				t.Fatalf("engine %d round %d: acc width %d after reset", eng, round, got.Width())
			}
			// A net init (wire inv = ~d[0]) is a continuous assign:
			// the first settle after reset recomputes it (d zeroed,
			// so inv = 1).
			if err := s.Settle(); err != nil {
				t.Fatal(err)
			}
			if got := s.Get("inv").Uint64(); got != 1 {
				t.Fatalf("engine %d round %d: net init not recomputed, inv = %d", eng, round, got)
			}
		}
	}
}

// TestNewFromProgramAllocs: an instance costs a constant number of
// allocations, whatever the design's size. Every register, shadow
// vector and loop trip counter comes out of one word arena sized at
// compile time, so a 1-signal design and a 100-bit bit reverser with a
// for loop instantiate in the same count.
func TestNewFromProgramAllocs(t *testing.T) {
	count := func(src string) float64 {
		prog, err := Compile(buildDesign(t, src))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() { NewFromProgram(prog) })
	}
	one := count("module one(input a);\nendmodule\n")
	wide := count(`module top_module(input [99:0] in, output reg [99:0] out);
	always @(*) begin
		for (int i = 0; i < 100; i = i + 1)
			out[i] = in[99 - i];
	end
endmodule`)
	t.Logf("NewFromProgram: %.0f allocations (1 signal), %.0f (100-bit reverser)", one, wide)
	if one != wide {
		t.Fatalf("NewFromProgram allocates %.0f times for 1 signal and %.0f for the 100-bit reverser, want the same", one, wide)
	}
}

// TestEngineSteadyStateZeroAllocs is the allocation regression guard the
// CI smoke run executes: a steady-state cycle (drive inputs, settle,
// clock) on a ≤64-bit design must not allocate.
func TestEngineSteadyStateZeroAllocs(t *testing.T) {
	src := `
module alu(input clk, input rst, input [31:0] a, input [31:0] b, input [1:0] op,
           output reg [31:0] acc, output [31:0] comb, output zero);
	wire [31:0] sum = a + b;
	assign comb = op[0] ? (a & b) : sum ^ b;
	assign zero = acc == 0;
	always @(posedge clk) begin
		if (rst) acc <= 0;
		else begin
			case (op)
				2'b00: acc <= acc + a;
				2'b01: acc <= acc - b;
				2'b10: acc <= acc ^ sum;
				default: acc <= {acc[15:0], a[15:0]};
			endcase
		end
	end
endmodule`
	design := buildDesign(t, src)
	s, err := NewWith(design, EngineCompiled)
	if err != nil {
		t.Fatal(err)
	}
	av := bitvec.FromUint64(32, 0xDEADBEEF)
	bv := bitvec.FromUint64(32, 0x12345678)
	step := func() {
		if err := s.SetInput("a", av); err != nil {
			t.Fatal(err)
		}
		if err := s.SetInput("b", bv); err != nil {
			t.Fatal(err)
		}
		if err := s.SetInputUint("op", 2); err != nil {
			t.Fatal(err)
		}
		if err := s.Settle(); err != nil {
			t.Fatal(err)
		}
		if err := s.ClockPulse("clk"); err != nil {
			t.Fatal(err)
		}
	}
	step() // reach steady state (NBA pools sized)
	allocs := testing.AllocsPerRun(200, step)
	if allocs != 0 {
		t.Fatalf("steady-state cycle allocated %.2f/op, want 0", allocs)
	}
}

// TestEngineWideSteadyStateAllocs: wide (multi-word) designs also run
// allocation-free once warm.
func TestEngineWideSteadyStateAllocs(t *testing.T) {
	design := buildDesign(t, wideBenchSrc)
	s, err := NewWith(design, EngineCompiled)
	if err != nil {
		t.Fatal(err)
	}
	in := bitvec.New(255)
	for i := 0; i < 255; i += 3 {
		in.SetBitInPlace(i, true)
	}
	step := func() {
		if err := s.SetInput("in", in); err != nil {
			t.Fatal(err)
		}
		if err := s.Settle(); err != nil {
			t.Fatal(err)
		}
		if err := s.ClockPulse("clk"); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("wide steady-state cycle allocated %.2f/op, want 0", allocs)
	}
}

// TestProgramSharedAcrossEngines: one Program, many engines, independent
// state.
func TestProgramSharedAcrossEngines(t *testing.T) {
	design := buildDesign(t, `
module ctr(input clk, output reg [7:0] q);
	always @(posedge clk) q <= q + 1;
endmodule`)
	prog, err := Compile(design)
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewFromProgram(prog), NewFromProgram(prog)
	for i := 0; i < 5; i++ {
		a.ClockPulse("clk")
	}
	b.ClockPulse("clk")
	if av, bv := a.Get("q").Uint64(), b.Get("q").Uint64(); av != 5 || bv != 1 {
		t.Fatalf("engines share state: a=%d b=%d", av, bv)
	}
	if len(prog.slots) == 0 {
		t.Fatal("program must report interned slots")
	}
}

// TestCompileRejectsUnsupported enumerates constructs that must route to
// the walker rather than miscompile.
func TestCompileRejectsUnsupported(t *testing.T) {
	cases := []string{
		// unsupported system function
		`module m(input [7:0] a, output [7:0] y); assign y = $random(a); endmodule`,
	}
	for _, src := range cases {
		design := buildDesign(t, src)
		if _, err := Compile(design); err == nil {
			t.Errorf("must reject: %s", strings.TrimSpace(src))
		}
	}
}
