package dataset

import "fmt"

// circuit is the suite-independent definition of one benchmark design.
// suites.go instantiates it into Machine- and Human-track problems with
// the appropriate description style.
type circuit struct {
	baseID      string
	difficulty  Difficulty
	machineDesc string
	humanDesc   string
	src         string
	clock       string
	cycles      int
}

// allCircuits accumulates every registered circuit definition.
var allCircuits []circuit

func addCircuit(c circuit) { allCircuits = append(allCircuits, c) }

const stdHeader = "module top_module"

// ---------- bitwise NOT ----------

func init() {
	for _, w := range []int{2, 3, 4, 8, 12, 16, 24, 32, 64, 100} {
		addCircuit(circuit{
			baseID:     fmt.Sprintf("not_w%d", w),
			difficulty: Easy,
			machineDesc: fmt.Sprintf(
				"Assign the output out to the bitwise complement of the %d-bit input in.", w),
			humanDesc: fmt.Sprintf(
				"Build a circuit that inverts every bit of a %d-bit bus: the output is the one's complement of the input.", w),
			src: fmt.Sprintf(`%s (
	input [%d:0] in,
	output [%d:0] out
);
	assign out = ~in;
endmodule
`, stdHeader, w-1, w-1),
		})
	}
}

// ---------- two-input gates ----------

func init() {
	type gate struct {
		name string
		expr string
	}
	gates := []gate{
		{"and", "a & b"},
		{"or", "a | b"},
		{"xor", "a ^ b"},
		{"nand", "~(a & b)"},
		{"nor", "~(a | b)"},
		{"xnor", "~(a ^ b)"},
	}
	for _, g := range gates {
		for _, w := range []int{1, 4, 8, 16} {
			addCircuit(circuit{
				baseID:     fmt.Sprintf("gate_%s_w%d", g.name, w),
				difficulty: Easy,
				machineDesc: fmt.Sprintf(
					"Assign the output out to %s where a and b are %d-bit inputs.", g.expr, w),
				humanDesc: fmt.Sprintf(
					"Implement a %d-bit wide %s gate over the two inputs a and b.", w, g.name),
				src: fmt.Sprintf(`%s (
	input [%d:0] a,
	input [%d:0] b,
	output [%d:0] out
);
	assign out = %s;
endmodule
`, stdHeader, w-1, w-1, w-1, g.expr),
			})
		}
	}
}

// ---------- 2:1 and 4:1 multiplexers ----------

func init() {
	for _, w := range []int{1, 4, 8, 16, 32, 100} {
		addCircuit(circuit{
			baseID:     fmt.Sprintf("mux2_w%d", w),
			difficulty: Easy,
			machineDesc: fmt.Sprintf(
				"Assign out to b when sel is 1 and to a when sel is 0; a and b are %d-bit inputs.", w),
			humanDesc: fmt.Sprintf(
				"Create a %d-bit 2-to-1 multiplexer selecting between a and b with the select input sel.", w),
			src: fmt.Sprintf(`%s (
	input [%d:0] a,
	input [%d:0] b,
	input sel,
	output [%d:0] out
);
	assign out = sel ? b : a;
endmodule
`, stdHeader, w-1, w-1, w-1),
		})
	}
	for _, w := range []int{2, 8} {
		addCircuit(circuit{
			baseID:     fmt.Sprintf("mux4_w%d", w),
			difficulty: Easy,
			machineDesc: fmt.Sprintf(
				"Using a case statement on the 2-bit select sel, route d0/d1/d2/d3 (%d-bit each) to out.", w),
			humanDesc: fmt.Sprintf(
				"Build a %d-bit 4-to-1 multiplexer with data inputs d0 through d3 and a 2-bit select.", w),
			src: fmt.Sprintf(`%s (
	input [%d:0] d0,
	input [%d:0] d1,
	input [%d:0] d2,
	input [%d:0] d3,
	input [1:0] sel,
	output reg [%d:0] out
);
	always @(*) begin
		case (sel)
			2'b00: out = d0;
			2'b01: out = d1;
			2'b10: out = d2;
			default: out = d3;
		endcase
	end
endmodule
`, stdHeader, w-1, w-1, w-1, w-1, w-1),
		})
	}
}

// ---------- bit reversal (the paper's running example) ----------

func init() {
	for _, cfg := range []struct {
		w    int
		diff Difficulty
	}{{8, Easy}, {32, Easy}, {100, Hard}} {
		w, diff := cfg.w, cfg.diff
		addCircuit(circuit{
			baseID:     fmt.Sprintf("vector_reverse_w%d", w),
			difficulty: diff,
			machineDesc: fmt.Sprintf(
				"Given a %d-bit input vector in[%d:0], reverse its bit ordering so out[i] equals in[%d-i].", w, w-1, w-1),
			humanDesc: fmt.Sprintf(
				"Given a %d-bit input vector, reverse its bit ordering.", w),
			src: fmt.Sprintf(`%s (
	input [%d:0] in,
	output reg [%d:0] out
);
	always @(*) begin
		for (int i = 0; i < %d; i = i + 1)
			out[i] = in[%d - i];
	end
endmodule
`, stdHeader, w-1, w-1, w, w-1),
		})
	}
}

// ---------- population count ----------

func init() {
	for _, cfg := range []struct {
		w    int
		ow   int
		diff Difficulty
	}{{3, 2, Easy}, {8, 4, Easy}, {16, 5, Easy}, {32, 6, Hard}, {100, 7, Hard}} {
		w, ow, diff := cfg.w, cfg.ow, cfg.diff
		addCircuit(circuit{
			baseID:     fmt.Sprintf("popcount_w%d", w),
			difficulty: diff,
			machineDesc: fmt.Sprintf(
				"Count the number of 1 bits in the %d-bit input in using a for loop accumulating into the %d-bit output out.", w, ow),
			humanDesc: fmt.Sprintf(
				"A population-count circuit counts the number of set bits in a vector. Build one for a %d-bit input.", w),
			src: fmt.Sprintf(`%s (
	input [%d:0] in,
	output reg [%d:0] out
);
	always @(*) begin
		out = 0;
		for (int i = 0; i < %d; i = i + 1)
			out = out + in[i];
	end
endmodule
`, stdHeader, w-1, ow-1, w),
		})
	}
}

// ---------- adders / subtractors ----------

func init() {
	for _, w := range []int{4, 8, 16, 24, 32} {
		addCircuit(circuit{
			baseID:     fmt.Sprintf("adder_w%d", w),
			difficulty: Easy,
			machineDesc: fmt.Sprintf(
				"Add the %d-bit inputs a and b with carry-in cin; output the %d-bit sum and the carry-out cout via a concatenated assignment.", w, w),
			humanDesc: fmt.Sprintf(
				"Implement a %d-bit full adder with carry-in and carry-out.", w),
			src: fmt.Sprintf(`%s (
	input [%d:0] a,
	input [%d:0] b,
	input cin,
	output [%d:0] sum,
	output cout
);
	assign {cout, sum} = a + b + cin;
endmodule
`, stdHeader, w-1, w-1, w-1),
		})
	}
	for _, w := range []int{8, 16, 32} {
		addCircuit(circuit{
			baseID:     fmt.Sprintf("subtract_w%d", w),
			difficulty: Easy,
			machineDesc: fmt.Sprintf(
				"Subtract the %d-bit input b from a and assign the difference to out.", w),
			humanDesc: fmt.Sprintf(
				"Build a %d-bit subtractor computing a minus b with wraparound.", w),
			src: fmt.Sprintf(`%s (
	input [%d:0] a,
	input [%d:0] b,
	output [%d:0] out
);
	assign out = a - b;
endmodule
`, stdHeader, w-1, w-1, w-1),
		})
	}
	// Signed overflow detection: a known LLM stumbling block -> hard.
	addCircuit(circuit{
		baseID:     "add_overflow_w8",
		difficulty: Hard,
		machineDesc: "Add the 8-bit two's-complement inputs a and b into s, and set overflow when " +
			"the signs of a and b agree but differ from the sign of s.",
		humanDesc: "Implement an 8-bit two's-complement adder that also reports signed overflow.",
		src: stdHeader + ` (
	input [7:0] a,
	input [7:0] b,
	output [7:0] s,
	output overflow
);
	assign s = a + b;
	assign overflow = (a[7] & b[7] & ~s[7]) | (~a[7] & ~b[7] & s[7]);
endmodule
`,
	})
}

// ---------- decoders / encoders ----------

func init() {
	for _, n := range []int{2, 3, 4, 5} {
		w := 1 << n
		addCircuit(circuit{
			baseID:     fmt.Sprintf("decoder_%dto%d", n, w),
			difficulty: Easy,
			machineDesc: fmt.Sprintf(
				"Drive the %d-bit one-hot output out by shifting 1 left by the %d-bit input sel.", w, n),
			humanDesc: fmt.Sprintf(
				"Build a %d-to-%d one-hot decoder.", n, w),
			src: fmt.Sprintf(`%s (
	input [%d:0] sel,
	output [%d:0] out
);
	assign out = 1 << sel;
endmodule
`, stdHeader, n-1, w-1),
		})
	}
	for _, cfg := range []struct {
		w, ow int
		diff  Difficulty
	}{{4, 2, Easy}, {8, 3, Hard}, {16, 4, Hard}, {32, 5, Hard}} {
		w, ow, diff := cfg.w, cfg.ow, cfg.diff
		addCircuit(circuit{
			baseID:     fmt.Sprintf("priority_encoder_w%d", w),
			difficulty: diff,
			machineDesc: fmt.Sprintf(
				"Scan the %d-bit input in from bit %d down to 0 inside an always block; pos gets the index of the highest set bit (0 when none), valid is |in.", w, w-1),
			humanDesc: fmt.Sprintf(
				"Design a %d-bit priority encoder: output the index of the most significant set bit plus a valid flag.", w),
			src: fmt.Sprintf(`%s (
	input [%d:0] in,
	output reg [%d:0] pos,
	output valid
);
	assign valid = |in;
	always @(*) begin
		pos = 0;
		for (int i = 0; i < %d; i = i + 1)
			if (in[i])
				pos = i;
	end
endmodule
`, stdHeader, w-1, ow-1, w),
		})
	}
}

// ---------- parity / gray code ----------

func init() {
	for _, w := range []int{8, 16, 32} {
		addCircuit(circuit{
			baseID:     fmt.Sprintf("parity_w%d", w),
			difficulty: Easy,
			machineDesc: fmt.Sprintf(
				"Assign parity to the XOR reduction of the %d-bit input in.", w),
			humanDesc: fmt.Sprintf(
				"Compute the even parity bit of a %d-bit word.", w),
			src: fmt.Sprintf(`%s (
	input [%d:0] in,
	output parity
);
	assign parity = ^in;
endmodule
`, stdHeader, w-1),
		})
	}
	for _, w := range []int{4, 8, 16, 32} {
		addCircuit(circuit{
			baseID:     fmt.Sprintf("bin2gray_w%d", w),
			difficulty: Easy,
			machineDesc: fmt.Sprintf(
				"Assign gray to bin XOR (bin shifted right by one) for the %d-bit input bin.", w),
			humanDesc: fmt.Sprintf(
				"Convert a %d-bit binary number to Gray code.", w),
			src: fmt.Sprintf(`%s (
	input [%d:0] bin,
	output [%d:0] gray
);
	assign gray = bin ^ (bin >> 1);
endmodule
`, stdHeader, w-1, w-1),
		})
	}
}

// ---------- shifts ----------

func init() {
	addCircuit(circuit{
		baseID:      "shl_fixed_w8",
		difficulty:  Easy,
		machineDesc: "Assign out to the 8-bit input in shifted left by 2 with zero fill.",
		humanDesc:   "Shift an 8-bit word left by two positions.",
		src: stdHeader + ` (
	input [7:0] in,
	output [7:0] out
);
	assign out = in << 2;
endmodule
`,
	})
	addCircuit(circuit{
		baseID:      "shr_fixed_w8",
		difficulty:  Easy,
		machineDesc: "Assign out to the 8-bit input in shifted right logically by 3.",
		humanDesc:   "Shift an 8-bit word right by three positions, filling with zeros.",
		src: stdHeader + ` (
	input [7:0] in,
	output [7:0] out
);
	assign out = in >> 3;
endmodule
`,
	})
	for _, cfg := range []struct {
		dir  string
		expr string
		diff Difficulty
	}{{"left", "in << amt", Hard}, {"right", "in >> amt", Hard}} {
		dir, expr := cfg.dir, cfg.expr
		addCircuit(circuit{
			baseID:     fmt.Sprintf("barrel_%s_w16", dir),
			difficulty: cfg.diff,
			machineDesc: fmt.Sprintf(
				"Assign out to the 16-bit input in shifted %s by the 4-bit amount amt.", dir),
			humanDesc: fmt.Sprintf(
				"Build a 16-bit barrel shifter that shifts %s by a variable 4-bit amount.", dir),
			src: fmt.Sprintf(`%s (
	input [15:0] in,
	input [3:0] amt,
	output [15:0] out
);
	assign out = %s;
endmodule
`, stdHeader, expr),
		})
	}
	addCircuit(circuit{
		baseID:      "rotate_left_w8",
		difficulty:  Hard,
		machineDesc: "Rotate the 8-bit input left by the 3-bit amount amt: out = (in << amt) | (in >> (8 - amt)).",
		humanDesc:   "Build an 8-bit left rotator with a variable rotate amount.",
		src: stdHeader + ` (
	input [7:0] in,
	input [2:0] amt,
	output [7:0] out
);
	wire [3:0] inv;
	assign inv = 8 - amt;
	assign out = (in << amt) | (in >> inv);
endmodule
`,
	})
}

// ---------- comparators / min-max ----------

func init() {
	addCircuit(circuit{
		baseID:      "comparator_w8",
		difficulty:  Easy,
		machineDesc: "Compare the 8-bit unsigned inputs a and b: eq is a==b, lt is a<b, gt is a>b.",
		humanDesc:   "Build an 8-bit unsigned comparator producing equal / less-than / greater-than flags.",
		src: stdHeader + ` (
	input [7:0] a,
	input [7:0] b,
	output eq,
	output lt,
	output gt
);
	assign eq = a == b;
	assign lt = a < b;
	assign gt = a > b;
endmodule
`,
	})
	addCircuit(circuit{
		baseID:      "minmax_w8",
		difficulty:  Easy,
		machineDesc: "Assign min to the smaller and max to the larger of the 8-bit unsigned inputs a and b using ternary operators.",
		humanDesc:   "Output both the minimum and maximum of two 8-bit unsigned numbers.",
		src: stdHeader + ` (
	input [7:0] a,
	input [7:0] b,
	output [7:0] min,
	output [7:0] max
);
	assign min = a < b ? a : b;
	assign max = a < b ? b : a;
endmodule
`,
	})
}

// ---------- extension / swapping / complements ----------

func init() {
	addCircuit(circuit{
		baseID:      "sign_extend_8to16",
		difficulty:  Easy,
		machineDesc: "Sign-extend the 8-bit input in to the 16-bit output out by replicating in[7] eight times in a concatenation.",
		humanDesc:   "Sign-extend an 8-bit two's-complement value to 16 bits.",
		src: stdHeader + ` (
	input [7:0] in,
	output [15:0] out
);
	assign out = {{8{in[7]}}, in};
endmodule
`,
	})
	addCircuit(circuit{
		baseID:      "byte_swap_w16",
		difficulty:  Easy,
		machineDesc: "Swap the two bytes of the 16-bit input: out = {in[7:0], in[15:8]}.",
		humanDesc:   "Reverse the byte order of a 16-bit word.",
		src: stdHeader + ` (
	input [15:0] in,
	output [15:0] out
);
	assign out = {in[7:0], in[15:8]};
endmodule
`,
	})
	addCircuit(circuit{
		baseID:      "byte_swap_w32",
		difficulty:  Easy,
		machineDesc: "Reverse the four bytes of the 32-bit input using a concatenation of 8-bit slices.",
		humanDesc:   "Convert a 32-bit word between big- and little-endian byte order.",
		src: stdHeader + ` (
	input [31:0] in,
	output [31:0] out
);
	assign out = {in[7:0], in[15:8], in[23:16], in[31:24]};
endmodule
`,
	})
	addCircuit(circuit{
		baseID:      "twos_complement_w8",
		difficulty:  Easy,
		machineDesc: "Assign out to the two's complement (~in + 1) of the 8-bit input in.",
		humanDesc:   "Negate an 8-bit two's-complement number.",
		src: stdHeader + ` (
	input [7:0] in,
	output [7:0] out
);
	assign out = ~in + 1;
endmodule
`,
	})
	addCircuit(circuit{
		baseID:      "abs_w8",
		difficulty:  Hard,
		machineDesc: "Assign out to in when in[7] is 0, otherwise to ~in + 1 (two's-complement absolute value).",
		humanDesc:   "Compute the absolute value of an 8-bit two's-complement input.",
		src: stdHeader + ` (
	input [7:0] in,
	output [7:0] out
);
	assign out = in[7] ? (~in + 1) : in;
endmodule
`,
	})
}

// ---------- small multipliers (hard: arithmetic) ----------

func init() {
	for _, cfg := range []struct {
		w int
	}{{4}, {8}} {
		w := cfg.w
		addCircuit(circuit{
			baseID:     fmt.Sprintf("multiplier_w%d", w),
			difficulty: Hard,
			machineDesc: fmt.Sprintf(
				"Multiply the %d-bit unsigned inputs a and b into the %d-bit product out.", w, 2*w),
			humanDesc: fmt.Sprintf(
				"Build a %d-by-%d unsigned multiplier with a full-width product.", w, w),
			src: fmt.Sprintf(`%s (
	input [%d:0] a,
	input [%d:0] b,
	output [%d:0] out
);
	assign out = a * b;
endmodule
`, stdHeader, w-1, w-1, 2*w-1),
		})
	}
	addCircuit(circuit{
		baseID:      "bcd_digit_valid",
		difficulty:  Easy,
		machineDesc: "Set valid when the 4-bit input digit is between 0 and 9 inclusive (digit < 10).",
		humanDesc:   "Check whether a 4-bit code is a valid BCD digit.",
		src: stdHeader + ` (
	input [3:0] digit,
	output valid
);
	assign valid = digit < 10;
endmodule
`,
	})
}
