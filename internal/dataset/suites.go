package dataset

import (
	"fmt"
	"sort"
	"strings"
)

// This file assembles the suites from the circuit definitions:
//
//   - Human: all 156 circuits with high-level descriptions, re-split into
//     71 easy / 85 hard by complexity score, matching the paper's split of
//     VerilogEval-Human at the 0.1 pass-rate threshold.
//   - Machine: the same circuits minus every 12th (143 total), with
//     low-level mechanical descriptions, as VerilogEval-Machine's
//     LLM-generated descriptions are.
//   - RTLLM: the separate large-design suite.

// extra width sweeps and small families that round the corpus out to the
// paper's suite sizes.
func init() {
	// three-input gates
	for _, g := range []struct {
		name string
		expr string
	}{
		{"and3", "a & b & c"},
		{"or3", "a | b | c"},
		{"xor3", "a ^ b ^ c"},
	} {
		for _, w := range []int{1, 8} {
			addCircuit(circuit{
				baseID:      fmt.Sprintf("gate_%s_w%d", g.name, w),
				difficulty:  Easy,
				machineDesc: fmt.Sprintf("Assign out to %s for the %d-bit inputs a, b, and c.", g.expr, w),
				humanDesc:   fmt.Sprintf("Implement a %d-bit three-input %s gate.", w, strings.TrimSuffix(g.name, "3")),
				src: fmt.Sprintf(`%s (
	input [%d:0] a,
	input [%d:0] b,
	input [%d:0] c,
	output [%d:0] out
);
	assign out = %s;
endmodule
`, stdHeader, w-1, w-1, w-1, w-1, g.expr),
			})
		}
	}
	// reduction operators
	for _, r := range []struct {
		name string
		op   string
	}{
		{"redand", "&"},
		{"redor", "|"},
		{"redxor", "^"},
	} {
		for _, w := range []int{8, 16} {
			addCircuit(circuit{
				baseID:      fmt.Sprintf("%s_w%d", r.name, w),
				difficulty:  Easy,
				machineDesc: fmt.Sprintf("Assign out to the unary reduction %sin over the %d-bit input in.", r.op, w),
				humanDesc:   fmt.Sprintf("Reduce a %d-bit input to a single bit with the %s operator applied across all bits.", w, r.op),
				src: fmt.Sprintf(`%s (
	input [%d:0] in,
	output out
);
	assign out = %sin;
endmodule
`, stdHeader, w-1, r.op),
			})
		}
	}
	// half/full adder bit slices
	addCircuit(circuit{
		baseID:      "half_adder",
		difficulty:  Easy,
		machineDesc: "Assign sum to a ^ b and cout to a & b for the 1-bit inputs.",
		humanDesc:   "Implement a half adder.",
		src: stdHeader + ` (
	input a,
	input b,
	output sum,
	output cout
);
	assign sum = a ^ b;
	assign cout = a & b;
endmodule
`,
	})
	addCircuit(circuit{
		baseID:      "full_adder",
		difficulty:  Easy,
		machineDesc: "Compute {cout, sum} = a + b + cin for 1-bit inputs using a concatenated assignment.",
		humanDesc:   "Implement a single-bit full adder.",
		src: stdHeader + ` (
	input a,
	input b,
	input cin,
	output sum,
	output cout
);
	assign {cout, sum} = a + b + cin;
endmodule
`,
	})
	// detectors
	addCircuit(circuit{
		baseID:      "zero_detect_w8",
		difficulty:  Easy,
		machineDesc: "Set zero when the 8-bit input in equals 0.",
		humanDesc:   "Detect the all-zeros condition on an 8-bit bus.",
		src: stdHeader + ` (
	input [7:0] in,
	output zero
);
	assign zero = in == 0;
endmodule
`,
	})
	addCircuit(circuit{
		baseID:      "allones_detect_w8",
		difficulty:  Easy,
		machineDesc: "Set ones when the 8-bit input in equals 8'hFF, using the AND reduction.",
		humanDesc:   "Detect the all-ones condition on an 8-bit bus.",
		src: stdHeader + ` (
	input [7:0] in,
	output ones
);
	assign ones = &in;
endmodule
`,
	})
	addCircuit(circuit{
		baseID:      "range_detect_w8",
		difficulty:  Easy,
		machineDesc: "Set hit when the 8-bit input in is between 32 and 96 inclusive (two comparisons ANDed).",
		humanDesc:   "Detect whether a byte falls inside the range [32, 96].",
		src: stdHeader + ` (
	input [7:0] in,
	output hit
);
	assign hit = (in >= 32) && (in <= 96);
endmodule
`,
	})
	addCircuit(circuit{
		baseID:      "majority3",
		difficulty:  Easy,
		machineDesc: "Assign out to the majority of the three 1-bit inputs: (a&b) | (a&c) | (b&c).",
		humanDesc:   "Implement a 3-input majority voter.",
		src: stdHeader + ` (
	input a,
	input b,
	input c,
	output out
);
	assign out = (a & b) | (a & c) | (b & c);
endmodule
`,
	})
	addCircuit(circuit{
		baseID:      "clamp_w8",
		difficulty:  Easy,
		machineDesc: "Assign out to in when in is below 200, otherwise to 200 (ternary on a comparison).",
		humanDesc:   "Clamp a byte value to a maximum of 200.",
		src: stdHeader + ` (
	input [7:0] in,
	output [7:0] out
);
	assign out = in < 200 ? in : 8'd200;
endmodule
`,
	})
	addCircuit(circuit{
		baseID:      "nibble_swap_w8",
		difficulty:  Easy,
		machineDesc: "Swap the nibbles of the 8-bit input: out = {in[3:0], in[7:4]}.",
		humanDesc:   "Exchange the upper and lower halves of a byte.",
		src: stdHeader + ` (
	input [7:0] in,
	output [7:0] out
);
	assign out = {in[3:0], in[7:4]};
endmodule
`,
	})
	// capture register and enabled/up-down counters
	addCircuit(circuit{
		baseID:      "capture_reg_w8",
		difficulty:  Easy,
		machineDesc: "When load is high, register the 8-bit input d into q on the clock edge; hold q otherwise.",
		humanDesc:   "Build a byte-wide capture register with a load strobe.",
		clock:       "clk",
		src: stdHeader + ` (
	input clk,
	input load,
	input [7:0] d,
	output reg [7:0] q
);
	always @(posedge clk)
		if (load)
			q <= d;
endmodule
`,
	})
	for _, w := range []int{4, 8} {
		addCircuit(circuit{
			baseID:      fmt.Sprintf("counter_en_w%d", w),
			difficulty:  Easy,
			machineDesc: fmt.Sprintf("Increment the %d-bit q on the clock edge only while ena is high; synchronous reset clears q.", w),
			humanDesc:   fmt.Sprintf("Build a %d-bit counter with a count-enable input.", w),
			clock:       "clk",
			src: fmt.Sprintf(`%s (
	input clk,
	input reset,
	input ena,
	output reg [%d:0] q
);
	always @(posedge clk) begin
		if (reset)
			q <= 0;
		else if (ena)
			q <= q + 1;
	end
endmodule
`, stdHeader, w-1),
		})
	}
	addCircuit(circuit{
		baseID:      "updown_counter_w4",
		difficulty:  Hard,
		machineDesc: "A 4-bit counter that increments when up is high and decrements otherwise, wrapping both ways; synchronous reset clears it.",
		humanDesc:   "Build a 4-bit up/down counter controlled by a direction input.",
		clock:       "clk",
		src: stdHeader + ` (
	input clk,
	input reset,
	input up,
	output reg [3:0] q
);
	always @(posedge clk) begin
		if (reset)
			q <= 0;
		else if (up)
			q <= q + 1;
		else
			q <= q - 1;
	end
endmodule
`,
	})
}

// complexityScore rates how demanding a circuit is from a high-level
// description: this implements the paper's empirical easy/hard split (the
// 0.1 pass-rate threshold on Human) without hand-labelling.
func complexityScore(c circuit) int {
	score := len(c.src)
	if c.clock != "" {
		score += 120
	}
	if strings.Contains(c.src, "for (") {
		score += 150
	}
	if strings.Contains(c.src, "case") {
		score += 120
	}
	if strings.Contains(c.src, "always") {
		score += 60
	}
	// wide vectors are disproportionately error-prone
	for _, wide := range []string{"[99:0]", "[63:0]", "[31:0]", "[15:0]"} {
		if strings.Contains(c.src, wide) {
			score += 60
			break
		}
	}
	if c.difficulty == Hard {
		score += 200 // authored difficulty is a strong prior
	}
	return score
}

// humanSuiteSize and machineSuiteSize mirror VerilogEval's problem counts.
const (
	humanSuiteSize   = 156
	humanHardCount   = 85
	machineSuiteSize = 143
)

func init() {
	circuits := append([]circuit(nil), allCircuits...)
	sort.Slice(circuits, func(i, j int) bool { return circuits[i].baseID < circuits[j].baseID })
	if len(circuits) != humanSuiteSize {
		panic(fmt.Sprintf("dataset: expected %d circuits, have %d — adjust the sweeps",
			humanSuiteSize, len(circuits)))
	}

	// Re-split difficulty: top humanHardCount by complexity are hard.
	type scored struct {
		idx   int
		score int
	}
	ranked := make([]scored, len(circuits))
	for i, c := range circuits {
		ranked[i] = scored{i, complexityScore(c)}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return circuits[ranked[i].idx].baseID < circuits[ranked[j].idx].baseID
	})
	for rank, r := range ranked {
		if rank < humanHardCount {
			circuits[r.idx].difficulty = Hard
		} else {
			circuits[r.idx].difficulty = Easy
		}
	}

	for i, c := range circuits {
		register(&Problem{
			ID:          c.baseID,
			Suite:       SuiteHuman,
			Difficulty:  c.difficulty,
			Description: c.humanDesc,
			RefSource:   c.src,
			Clock:       c.clock,
			Cycles:      c.cycles,
		})
		// Machine drops every 12th circuit to land on 143 problems.
		if (i+1)%12 == 0 {
			continue
		}
		register(&Problem{
			ID:          c.baseID,
			Suite:       SuiteMachine,
			Difficulty:  c.difficulty,
			Description: c.machineDesc,
			RefSource:   c.src,
			Clock:       c.clock,
			Cycles:      c.cycles,
		})
	}

	for _, c := range rtllmCircuits {
		register(&Problem{
			ID:          c.baseID,
			Suite:       SuiteRTLLM,
			Difficulty:  c.difficulty,
			Description: c.humanDesc,
			RefSource:   c.src,
			Clock:       c.clock,
			Cycles:      c.cycles,
		})
	}
}
