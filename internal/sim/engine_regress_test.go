package sim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sema"
)

// TestEngineRegressions is the permanent home for every minimized
// walker-vs-engine divergence. Each entry started life as a fuzzer or
// field find, was shrunk by the internal/fuzz minimizer (or by hand),
// and must stay bit-identical across both backends forever. Add new
// finds here; never delete entries.
func TestEngineRegressions(t *testing.T) {
	cases := []struct {
		name   string
		clock  string
		cycles int
		seed   int64
		src    string
	}{
		{
			// The compiled engine stored q[4:1] from q's own slot
			// register: the bit-copy loop read source bits it had
			// already overwritten. Fixed by copy-on-alias in
			// compileSliceStore and an alias-safe
			// bitvec.StoreSliceOf.
			name: "alias_slice_store", clock: "clk", cycles: 16, seed: 5,
			src: `
module m(input clk, input [7:0] d, output reg [7:0] q);
	always @(posedge clk) begin
		q = d;
		q[4:1] = q;
	end
endmodule`,
		},
		{
			// Two same-edge blocks each declaring 'integer i':
			// the walker ran both in one shared env, so block 1's
			// queued NBA targets were re-evaluated at commit time
			// with block 2's final i. Fixed by per-block envs in
			// walker fireEdge; the engine already gave each block
			// its own local slots.
			name: "shared_loop_var_nba", clock: "clk", cycles: 16, seed: 7,
			src: `
module m(input clk, input [7:0] d, output reg [7:0] q, output reg [7:0] r);
	integer i;
	always @(posedge clk) begin
		for (i = 0; i < 4; i = i + 1)
			q[i] <= d[i];
	end
	always @(posedge clk) begin
		for (i = 0; i < 6; i = i + 1)
			r[i] <= d[i];
	end
endmodule`,
		},
		{
			// Blocking self-alias through a full-width slice: the
			// RHS ident resolves to the destination's slot.
			name: "full_width_self_slice", clock: "", cycles: 16, seed: 11,
			src: `
module m(input [7:0] d, output reg [7:0] q);
	always @(*) begin
		q = d;
		q[7:0] = q;
	end
endmodule`,
		},
		{
			// Found by the generative fuzzer (seed 11 of the first
			// campaign): both backends once applied wire initializers
			// one-shot at reset — the walker in map iteration order —
			// so an init reading another initialized wire diverged
			// intermittently. Net inits are continuous assigns now,
			// recomputed every settle in both backends.
			name: "wire_init_chain", clock: "clk", cycles: 16, seed: 11,
			src: `
module m(input clk, input [3:0] d, output reg [7:0] q);
	wire [7:0] t0 = 8'h2e + (d << 3);
	wire [6:0] t1 = t0;
	always @(posedge clk)
		q <= t1;
endmodule`,
		},
		{
			// Dynamic-base self-aliasing part-select store: the
			// indexed store path must also snapshot the source.
			name: "dynamic_self_slice", clock: "", cycles: 16, seed: 13,
			src: `
module m(input [7:0] d, input [2:0] pos, output reg [15:0] w);
	always @(*) begin
		w = {d, d};
		w[pos +: 8] = w[7:0];
	end
endmodule`,
		},
		{
			// IEEE 1364-2005 §5.4.1 sizes c ? j : k as max(L(j),
			// L(k)). The engine rejected every ternary below whose
			// branch widths differ (value-dependent width) and the
			// walker took the chosen branch's width. Both backends
			// size it by the standard now (values pinned in
			// TestTernarySizingIEEE).
			name: "ternary_in_concat", clock: "", cycles: 32, seed: 17,
			src: `
module m(input c, input [3:0] a, input [7:0] b, output [8:0] y);
	assign y = {1'b1, (c ? a : b)};
endmodule`,
		},
		{
			// the narrow branch is evaluated at the ternary's width,
			// so a + a keeps its carry
			name: "ternary_branch_at_ternary_width", clock: "", cycles: 32, seed: 19,
			src: `
module m(input c, input [3:0] a, input [7:0] b, output [8:0] y);
	assign y = {1'b0, (c ? a + a : b)};
endmodule`,
		},
		{
			// the unsized 1 makes the ternary 32 bits wide, so ~ and
			// >> act on 32 bits before the store truncates
			name: "ternary_under_not_and_shift", clock: "", cycles: 32, seed: 23,
			src: `
module m(input c, input [7:0] a, output [7:0] y);
	assign y = (~(c ? (a - 1) : a)) >> 1;
endmodule`,
		},
		{
			// a Table 2 candidate, the one design of a full
			// benchmark run the engine used to reject
			name: "ternary_candidate_twos_complement", clock: "", cycles: 32, seed: 29,
			src: `
module top_module(input [7:0] in, output [7:0] out);
	assign out = ~((in[7] ? (in - 1) : in));
endmodule`,
		},
		{
			// $clog2 of a 64-bit input: the walker's doubling loop
			// never ended above 2^63 (1<<64 is 0 in Go), while the
			// engine stopped at 64; half of all random x, and every
			// ~x below 2^63, sit there. Fixed by bitvec.Clog2 in
			// both backends and sema (TestClog2Range pins x = 2^64-1).
			name: "clog2_top_of_range", clock: "", cycles: 32, seed: 31,
			src: `
module m(input [63:0] x, output [31:0] y, output [31:0] z);
	assign y = $clog2(x);
	assign z = $clog2(~x);
endmodule`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diffBoth(t, tc.src, tc.clock, tc.cycles, tc.seed)
		})
	}
}

// TestTernarySizingIEEE pins the values IEEE 1364-2005 §5.4.1 gives
// mixed-width conditionals, on both backends. diffBoth only checks that
// the backends agree, and they once agreed on a wrong value (the chosen
// branch's own width).
func TestTernarySizingIEEE(t *testing.T) {
	cases := []struct {
		name, src string
		in        map[string]uint64
		want      uint64
	}{
		{"concat", `
module m(input c, input [3:0] a, input [7:0] b, output [8:0] y);
	assign y = {1'b1, (c ? a : b)};
endmodule`, map[string]uint64{"c": 1, "a": 5}, 261},
		{"branch_at_ternary_width", `
module m(input c, input [3:0] a, input [7:0] b, output [8:0] y);
	assign y = {1'b0, (c ? a + a : b)};
endmodule`, map[string]uint64{"c": 1, "a": 15}, 0x1e},
		{"not_and_shift", `
module m(input c, input [7:0] a, output [7:0] y);
	assign y = (~(c ? (a - 1) : a)) >> 1;
endmodule`, map[string]uint64{"c": 0, "a": 0x5a}, 0xd2},
		{"procedural_self_determined", `
module m(input c, input [3:0] a, input [7:0] b, output reg [8:0] y);
	always @(*) y = {1'b1, (c ? a : b)} + 9'd0;
endmodule`, map[string]uint64{"c": 1, "a": 5}, 261},
	}
	for _, tc := range cases {
		design := buildDesign(t, tc.src)
		for _, eng := range []Engine{EngineCompiled, EngineWalker} {
			s, err := NewWith(design, eng)
			if err != nil {
				t.Fatalf("%s engine %d: %v", tc.name, eng, err)
			}
			for name, v := range tc.in {
				if err := s.SetInputUint(name, v); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Settle(); err != nil {
				t.Fatal(err)
			}
			if got := s.Get("y").Uint64(); got != tc.want {
				t.Errorf("%s engine %d: y = %#x, want %#x", tc.name, eng, got, tc.want)
			}
		}
	}
}

// TestClog2Range pins $clog2 at the edges of the 64-bit range on both
// backends and in sema's constant folder, within a deadline: the
// walker's and sema's doubling loops never ended above 2^63.
func TestClog2Range(t *testing.T) {
	design := buildDesign(t, `
module m(input [63:0] x, output [31:0] y);
	assign y = $clog2(x);
endmodule`)
	cases := []struct{ u, want uint64 }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2},
		{1 << 63, 63}, {1<<63 + 1, 64}, {1<<64 - 1, 64},
	}
	for _, tc := range cases {
		done := make(chan string, 1)
		go func() {
			var got []uint64
			for _, eng := range []Engine{EngineCompiled, EngineWalker} {
				s, err := NewWith(design, eng)
				if err == nil {
					err = s.SetInputUint("x", tc.u)
				}
				if err == nil {
					err = s.Settle()
				}
				if err != nil {
					done <- err.Error()
					return
				}
				got = append(got, s.Get("y").Uint64())
			}
			_, d, _ := sema.ParseAndElaborate(fmt.Sprintf("module m(output [31:0] y);\n\tlocalparam P = $clog2(64'd%d);\n\tassign y = P;\nendmodule\n", tc.u))
			got = append(got, d.Params["P"].Uint64())
			if got[0] != tc.want || got[1] != tc.want || got[2] != tc.want {
				done <- fmt.Sprintf("engine, walker, sema = %v, want %d", got, tc.want)
				return
			}
			done <- ""
		}()
		select {
		case msg := <-done:
			if msg != "" {
				t.Errorf("$clog2(%#x): %s", tc.u, msg)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("$clog2(%#x) did not settle within 10s", tc.u)
		}
	}
}

// TestShiftCountRange pins shifts by 64-bit counts on both backends: a
// count is unsigned, so 2^63 and up shift every bit out. Converted
// straight to int, 2^64-1 shifted the other way on both backends alike
// (so the differential could not see it), and a constant count of 2^63
// recursed until the stack overflowed.
func TestShiftCountRange(t *testing.T) {
	design := buildDesign(t, `
module m(input [7:0] a, input [63:0] x, output [7:0] y, output [7:0] z, output [7:0] w);
	assign y = a << x;
	assign z = a >> x;
	assign w = a << 64'h8000000000000000;
endmodule`)
	cases := []struct{ x, y, z uint64 }{
		{0, 0x81, 0x81}, {3, 0x08, 0x10}, {8, 0, 0},
		{1 << 63, 0, 0}, {1<<64 - 1, 0, 0},
	}
	for _, eng := range []Engine{EngineCompiled, EngineWalker} {
		s, err := NewWith(design, eng)
		if err != nil {
			t.Fatalf("engine %d: %v", eng, err)
		}
		for _, tc := range cases {
			if err := s.SetInputUint("a", 0x81); err != nil {
				t.Fatal(err)
			}
			if err := s.SetInputUint("x", tc.x); err != nil {
				t.Fatal(err)
			}
			if err := s.Settle(); err != nil {
				t.Fatal(err)
			}
			y, z, w := s.Get("y").Uint64(), s.Get("z").Uint64(), s.Get("w").Uint64()
			if y != tc.y || z != tc.z || w != 0 {
				t.Errorf("engine %d, x = %#x: y, z, w = %#x, %#x, %#x; want %#x, %#x, 0", eng, tc.x, y, z, w, tc.y, tc.z)
			}
		}
	}
}
