package dataset

import "fmt"

// ---------- D flip-flops ----------

func init() {
	for _, w := range []int{1, 8, 16, 32, 64} {
		addCircuit(circuit{
			baseID:     fmt.Sprintf("dff_w%d", w),
			difficulty: Easy,
			machineDesc: fmt.Sprintf(
				"On every positive clock edge, register the %d-bit input d into the output q.", w),
			humanDesc: fmt.Sprintf(
				"Create a %d-bit D flip-flop clocked on the rising edge of clk.", w),
			clock: "clk",
			src: fmt.Sprintf(`%s (
	input clk,
	input [%d:0] d,
	output reg [%d:0] q
);
	always @(posedge clk)
		q <= d;
endmodule
`, stdHeader, w-1, w-1),
		})
	}
	for _, w := range []int{1, 8, 16} {
		addCircuit(circuit{
			baseID:     fmt.Sprintf("dff_en_w%d", w),
			difficulty: Easy,
			machineDesc: fmt.Sprintf(
				"On the positive clock edge, load the %d-bit d into q only when ena is high; otherwise hold q.", w),
			humanDesc: fmt.Sprintf(
				"Build a %d-bit register with a clock-enable input.", w),
			clock: "clk",
			src: fmt.Sprintf(`%s (
	input clk,
	input ena,
	input [%d:0] d,
	output reg [%d:0] q
);
	always @(posedge clk)
		if (ena)
			q <= d;
endmodule
`, stdHeader, w-1, w-1),
		})
	}
	addCircuit(circuit{
		baseID:      "dff_areset_w8",
		difficulty:  Easy,
		machineDesc: "Register d into q on the positive clock edge; clear q to 0 asynchronously whenever areset is high.",
		humanDesc:   "Build an 8-bit register with an active-high asynchronous reset.",
		clock:       "clk",
		src: stdHeader + ` (
	input clk,
	input areset,
	input [7:0] d,
	output reg [7:0] q
);
	always @(posedge clk or posedge areset)
		if (areset)
			q <= 0;
		else
			q <= d;
endmodule
`,
	})
}

// ---------- counters ----------

func init() {
	for _, w := range []int{4, 6, 8, 12, 16} {
		addCircuit(circuit{
			baseID:     fmt.Sprintf("counter_up_w%d", w),
			difficulty: Easy,
			machineDesc: fmt.Sprintf(
				"On each positive clock edge set q to 0 when reset is high, otherwise increment the %d-bit q by 1.", w),
			humanDesc: fmt.Sprintf(
				"Build a %d-bit up-counter with synchronous reset.", w),
			clock: "clk",
			src: fmt.Sprintf(`%s (
	input clk,
	input reset,
	output reg [%d:0] q
);
	always @(posedge clk) begin
		if (reset)
			q <= 0;
		else
			q <= q + 1;
	end
endmodule
`, stdHeader, w-1),
		})
	}
	addCircuit(circuit{
		baseID:      "counter_down_w8",
		difficulty:  Easy,
		machineDesc: "On each positive clock edge set q to 8'hFF when reset is high, otherwise decrement q by 1.",
		humanDesc:   "Build an 8-bit down-counter that reloads to 255 on synchronous reset.",
		clock:       "clk",
		src: stdHeader + ` (
	input clk,
	input reset,
	output reg [7:0] q
);
	always @(posedge clk) begin
		if (reset)
			q <= 8'hff;
		else
			q <= q - 1;
	end
endmodule
`,
	})
	for _, cfg := range []struct {
		mod  int
		w    int
		diff Difficulty
	}{{7, 3, Hard}, {10, 4, Hard}, {12, 4, Hard}, {60, 6, Hard}} {
		mod, w := cfg.mod, cfg.w
		addCircuit(circuit{
			baseID:     fmt.Sprintf("counter_mod%d", mod),
			difficulty: cfg.diff,
			machineDesc: fmt.Sprintf(
				"Count from 0 to %d and wrap to 0; reset synchronously to 0 when reset is high. q is %d bits.", mod-1, w),
			humanDesc: fmt.Sprintf(
				"Build a modulo-%d counter (0 through %d, then back to 0) with synchronous reset.", mod, mod-1),
			clock: "clk",
			src: fmt.Sprintf(`%s (
	input clk,
	input reset,
	output reg [%d:0] q
);
	always @(posedge clk) begin
		if (reset)
			q <= 0;
		else if (q == %d)
			q <= 0;
		else
			q <= q + 1;
	end
endmodule
`, stdHeader, w-1, mod-1),
		})
	}
	addCircuit(circuit{
		baseID:      "counter_saturating_w4",
		difficulty:  Hard,
		machineDesc: "Increment the 4-bit q on each clock edge but hold at 15 once reached; reset synchronously to 0.",
		humanDesc:   "Build a 4-bit saturating counter: it climbs to 15 and stays there until reset.",
		clock:       "clk",
		src: stdHeader + ` (
	input clk,
	input reset,
	output reg [3:0] q
);
	always @(posedge clk) begin
		if (reset)
			q <= 0;
		else if (q != 4'hf)
			q <= q + 1;
	end
endmodule
`,
	})
	addCircuit(circuit{
		baseID:      "gray_counter_w4",
		difficulty:  Hard,
		machineDesc: "Keep a 4-bit binary counter internally; output its Gray encoding (bin ^ bin>>1). Reset synchronously.",
		humanDesc:   "Build a 4-bit Gray-code counter whose output advances one Gray step per clock.",
		clock:       "clk",
		src: stdHeader + ` (
	input clk,
	input reset,
	output [3:0] q
);
	reg [3:0] bin;
	always @(posedge clk) begin
		if (reset)
			bin <= 0;
		else
			bin <= bin + 1;
	end
	assign q = bin ^ (bin >> 1);
endmodule
`,
	})
}

// ---------- shift registers ----------

func init() {
	for _, w := range []int{4, 8, 16} {
		addCircuit(circuit{
			baseID:     fmt.Sprintf("shift_reg_w%d", w),
			difficulty: Easy,
			machineDesc: fmt.Sprintf(
				"On each positive clock edge shift q left by one and bring the serial input sin into bit 0: q <= {q[%d:0], sin}.", w-2),
			humanDesc: fmt.Sprintf(
				"Build a %d-bit serial-in shift register (MSB-first shift-left).", w),
			clock: "clk",
			src: fmt.Sprintf(`%s (
	input clk,
	input sin,
	output reg [%d:0] q
);
	always @(posedge clk)
		q <= {q[%d:0], sin};
endmodule
`, stdHeader, w-1, w-2),
		})
	}
	addCircuit(circuit{
		baseID:      "ring_counter_w4",
		difficulty:  Hard,
		machineDesc: "A 4-bit one-hot ring counter: load 4'b0001 on synchronous reset, then rotate left each clock: q <= {q[2:0], q[3]}.",
		humanDesc:   "Build a 4-bit ring counter that circulates a single hot bit.",
		clock:       "clk",
		src: stdHeader + ` (
	input clk,
	input reset,
	output reg [3:0] q
);
	always @(posedge clk) begin
		if (reset)
			q <= 4'b0001;
		else
			q <= {q[2:0], q[3]};
	end
endmodule
`,
	})
	addCircuit(circuit{
		baseID:      "johnson_counter_w4",
		difficulty:  Hard,
		machineDesc: "A 4-bit Johnson counter: on reset clear q, otherwise q <= {q[2:0], ~q[3]}.",
		humanDesc:   "Build a 4-bit Johnson (twisted-ring) counter.",
		clock:       "clk",
		src: stdHeader + ` (
	input clk,
	input reset,
	output reg [3:0] q
);
	always @(posedge clk) begin
		if (reset)
			q <= 0;
		else
			q <= {q[2:0], ~q[3]};
	end
endmodule
`,
	})
	addCircuit(circuit{
		baseID:      "lfsr_w5",
		difficulty:  Hard,
		machineDesc: "A 5-bit Galois LFSR with taps at positions 5 and 3: on reset load 5'h1; otherwise q <= {q[0], q[4], q[3]^q[0], q[2], q[1]}.",
		humanDesc:   "Implement a 5-bit linear-feedback shift register with the x^5 + x^3 + 1 polynomial, reset state 1.",
		clock:       "clk",
		src: stdHeader + ` (
	input clk,
	input reset,
	output reg [4:0] q
);
	always @(posedge clk) begin
		if (reset)
			q <= 5'h1;
		else
			q <= {q[0], q[4], q[3] ^ q[0], q[2], q[1]};
	end
endmodule
`,
	})
}

// ---------- edge detection / toggling ----------

func init() {
	addCircuit(circuit{
		baseID:      "edge_detect_rise",
		difficulty:  Easy,
		machineDesc: "Register the 1-bit input in each clock; output rise = ~prev & in, registered so it pulses the cycle after a 0-to-1 transition.",
		humanDesc:   "Detect rising edges of a slow input signal: pulse the output for one cycle after each 0-to-1 transition.",
		clock:       "clk",
		src: stdHeader + ` (
	input clk,
	input in,
	output reg rise
);
	reg prev;
	always @(posedge clk) begin
		rise <= ~prev & in;
		prev <= in;
	end
endmodule
`,
	})
	addCircuit(circuit{
		baseID:      "edge_detect_any",
		difficulty:  Hard,
		machineDesc: "For each bit of the 8-bit input, pulse the corresponding output bit the cycle after that bit changed in either direction (XOR of current and previous value).",
		humanDesc:   "Detect any change on each bit of an 8-bit bus, one output pulse per changed bit.",
		clock:       "clk",
		src: stdHeader + ` (
	input clk,
	input [7:0] in,
	output reg [7:0] anyedge
);
	reg [7:0] prev;
	always @(posedge clk) begin
		anyedge <= prev ^ in;
		prev <= in;
	end
endmodule
`,
	})
	addCircuit(circuit{
		baseID:      "toggle_ff",
		difficulty:  Easy,
		machineDesc: "A T flip-flop: on each clock edge invert q when t is high, hold otherwise; synchronous reset clears q.",
		humanDesc:   "Build a toggle flip-flop with synchronous reset.",
		clock:       "clk",
		src: stdHeader + ` (
	input clk,
	input reset,
	input t,
	output reg q
);
	always @(posedge clk) begin
		if (reset)
			q <= 0;
		else if (t)
			q <= ~q;
	end
endmodule
`,
	})
	for _, w := range []int{8, 16, 32} {
		addCircuit(circuit{
			baseID:     fmt.Sprintf("accumulator_w%d", w),
			difficulty: Easy,
			machineDesc: fmt.Sprintf(
				"On each clock edge add the %d-bit input d into the running sum q; synchronous reset clears the sum.", w),
			humanDesc: fmt.Sprintf(
				"Build a %d-bit accumulator that sums its input every cycle.", w),
			clock: "clk",
			src: fmt.Sprintf(`%s (
	input clk,
	input reset,
	input [%d:0] d,
	output reg [%d:0] q
);
	always @(posedge clk) begin
		if (reset)
			q <= 0;
		else
			q <= q + d;
	end
endmodule
`, stdHeader, w-1, w-1),
		})
	}
	addCircuit(circuit{
		baseID:      "freq_div2",
		difficulty:  Easy,
		machineDesc: "Toggle the output q on every positive clock edge (divide the clock by two); synchronous reset clears q.",
		humanDesc:   "Divide the input clock frequency by two using a toggling register.",
		clock:       "clk",
		src: stdHeader + ` (
	input clk,
	input reset,
	output reg q
);
	always @(posedge clk) begin
		if (reset)
			q <= 0;
		else
			q <= ~q;
	end
endmodule
`,
	})
}

// ---------- FSMs (the hard tail of the Human suite) ----------

// seqDetector builds a Moore overlapping sequence detector for a bit
// pattern given as a string of '0'/'1'.
func seqDetector(id, pattern string) circuit {
	n := len(pattern)
	// The RTL tracks the last n input bits in a shift register and
	// compares.
	return circuit{
		baseID:     id,
		difficulty: Hard,
		machineDesc: fmt.Sprintf(
			"Shift the serial input x into an internal %d-bit history register each clock; assert z when the history equals %s. Synchronous reset clears the history.",
			n, pattern),
		humanDesc: fmt.Sprintf(
			"Design a sequence detector that raises z for one cycle whenever the last %d serial input bits were %s (overlap allowed).",
			n, pattern),
		clock: "clk",
		src: fmt.Sprintf(`%s (
	input clk,
	input reset,
	input x,
	output z
);
	reg [%d:0] hist;
	always @(posedge clk) begin
		if (reset)
			hist <= 0;
		else
			hist <= {hist[%d:0], x};
	end
	assign z = hist == %d'b%s;
endmodule
`, stdHeader, n-1, n-2, n, pattern),
	}
}

func init() {
	addCircuit(seqDetector("seq_detect_101", "101"))
	addCircuit(seqDetector("seq_detect_110", "110"))
	addCircuit(seqDetector("seq_detect_1011", "1011"))

	addCircuit(circuit{
		baseID:     "fsm_one_input",
		difficulty: Hard,
		machineDesc: "A 3-state Moore machine over states 0,1,2: from 0 go to 1 on in, else stay; from 1 go to 2 on ~in, else stay; " +
			"from 2 go to 1 on in else 0. Output out is high in state 2. Synchronous reset to state 0.",
		humanDesc: "Implement the 3-state Moore FSM whose output goes high one cycle after the input sequence high-then-low is observed.",
		clock:     "clk",
		src: stdHeader + ` (
	input clk,
	input reset,
	input in,
	output out
);
	reg [1:0] state;
	reg [1:0] next;
	always @(posedge clk) begin
		if (reset)
			state <= 0;
		else
			state <= next;
	end
	always @(*) begin
		case (state)
			2'd0: next = in ? 2'd1 : 2'd0;
			2'd1: next = in ? 2'd1 : 2'd2;
			2'd2: next = in ? 2'd1 : 2'd0;
			default: next = 2'd0;
		endcase
	end
	assign out = state == 2'd2;
endmodule
`,
	})

	addCircuit(circuit{
		baseID:     "fsm_onehot3",
		difficulty: Hard,
		machineDesc: "A one-hot 3-state FSM in a 3-bit register: reset loads 3'b001; from 001 go to 010 on go, from 010 always to 100, " +
			"from 100 back to 001. done is high in state 100.",
		humanDesc: "Build a one-hot encoded 3-state sequencer triggered by a go pulse, asserting done in its final state.",
		clock:     "clk",
		src: stdHeader + ` (
	input clk,
	input reset,
	input go,
	output done
);
	reg [2:0] state;
	always @(posedge clk) begin
		if (reset)
			state <= 3'b001;
		else begin
			case (state)
				3'b001: state <= go ? 3'b010 : 3'b001;
				3'b010: state <= 3'b100;
				3'b100: state <= 3'b001;
				default: state <= 3'b001;
			endcase
		end
	end
	assign done = state[2];
endmodule
`,
	})

	addCircuit(circuit{
		baseID:     "arbiter_rr2",
		difficulty: Hard,
		machineDesc: "A 2-request round-robin arbiter: grant[i] goes to a single requester each cycle; when both request, alternate starting " +
			"with requester 0 after reset (track a last-grant bit).",
		humanDesc: "Design a two-port round-robin arbiter that alternates grants under contention.",
		clock:     "clk",
		src: stdHeader + ` (
	input clk,
	input reset,
	input [1:0] req,
	output reg [1:0] grant
);
	reg last;
	always @(posedge clk) begin
		if (reset) begin
			grant <= 0;
			last <= 1;
		end else begin
			grant <= 0;
			if (req[0] & req[1]) begin
				if (last) begin
					grant <= 2'b01;
					last <= 0;
				end else begin
					grant <= 2'b10;
					last <= 1;
				end
			end else if (req[0]) begin
				grant <= 2'b01;
				last <= 0;
			end else if (req[1]) begin
				grant <= 2'b10;
				last <= 1;
			end
		end
	end
endmodule
`,
	})

	addCircuit(circuit{
		baseID:      "serial2parallel_w8",
		difficulty:  Hard,
		machineDesc: "Shift the serial input sin into an 8-bit register MSB-first; every 8th cycle copy the register to dout and pulse valid. Use a 3-bit cycle counter with synchronous reset.",
		humanDesc:   "Convert a serial bit stream into bytes: after every eight input bits, present the assembled byte with a valid pulse.",
		clock:       "clk",
		src: stdHeader + ` (
	input clk,
	input reset,
	input sin,
	output reg [7:0] dout,
	output reg valid
);
	reg [7:0] sh;
	reg [2:0] cnt;
	always @(posedge clk) begin
		if (reset) begin
			sh <= 0;
			cnt <= 0;
			valid <= 0;
			dout <= 0;
		end else begin
			sh <= {sh[6:0], sin};
			if (cnt == 7) begin
				cnt <= 0;
				dout <= {sh[6:0], sin};
				valid <= 1;
			end else begin
				cnt <= cnt + 1;
				valid <= 0;
			end
		end
	end
endmodule
`,
	})

	addCircuit(circuit{
		baseID:      "timer_countdown_w8",
		difficulty:  Hard,
		machineDesc: "When load is high, capture the 8-bit input value into an internal counter; otherwise decrement it to zero and hold. Output tc is high while the counter is zero.",
		humanDesc:   "Build a loadable countdown timer that signals terminal count when it reaches zero.",
		clock:       "clk",
		src: stdHeader + ` (
	input clk,
	input load,
	input [7:0] value,
	output tc
);
	reg [7:0] cnt;
	always @(posedge clk) begin
		if (load)
			cnt <= value;
		else if (cnt != 0)
			cnt <= cnt - 1;
	end
	assign tc = cnt == 0;
endmodule
`,
	})

	addCircuit(circuit{
		baseID:      "pulse_stretch_4",
		difficulty:  Hard,
		machineDesc: "Whenever in pulses high, hold out high for exactly 4 cycles using a 2-bit down counter; retrigger restarts the window. Synchronous reset.",
		humanDesc:   "Stretch single-cycle input pulses into four-cycle output pulses, with retrigger.",
		clock:       "clk",
		src: stdHeader + ` (
	input clk,
	input reset,
	input in,
	output out
);
	reg [2:0] cnt;
	always @(posedge clk) begin
		if (reset)
			cnt <= 0;
		else if (in)
			cnt <= 4;
		else if (cnt != 0)
			cnt <= cnt - 1;
	end
	assign out = cnt != 0;
endmodule
`,
	})
}
