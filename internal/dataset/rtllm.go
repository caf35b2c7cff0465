package dataset

// rtllmCircuits defines the RTLLM-style suite: larger multi-feature
// designs in the spirit of the RTLLM benchmark's accu / adder_16bit /
// counter_12 / freq_div / signal_generator / traffic_light / alu set.
// Memory-array designs (RAM/ROM/FIFO) are out of the supported subset and
// are substituted by register-based designs of comparable size, as
// DESIGN.md records.
var rtllmCircuits []circuit

func addRTLLM(c circuit) { rtllmCircuits = append(rtllmCircuits, c) }

func init() {
	addRTLLM(circuit{
		baseID:     "accu",
		difficulty: Hard,
		machineDesc: "Accumulate the 8-bit input data on each valid_in pulse; after every 4th accumulation output the 10-bit sum on data_out " +
			"and pulse valid_out, then restart from zero. Synchronous reset.",
		humanDesc: "Build an accumulator that sums four valid 8-bit inputs and emits the total with a valid pulse.",
		clock:     "clk",
		src: stdHeader + ` (
	input clk,
	input rst,
	input valid_in,
	input [7:0] data,
	output reg [9:0] data_out,
	output reg valid_out
);
	reg [9:0] sum;
	reg [1:0] cnt;
	always @(posedge clk) begin
		if (rst) begin
			sum <= 0;
			cnt <= 0;
			valid_out <= 0;
			data_out <= 0;
		end else begin
			valid_out <= 0;
			if (valid_in) begin
				if (cnt == 3) begin
					data_out <= sum + data;
					valid_out <= 1;
					sum <= 0;
					cnt <= 0;
				end else begin
					sum <= sum + data;
					cnt <= cnt + 1;
				end
			end
		end
	end
endmodule
`,
	})

	addRTLLM(circuit{
		baseID:      "adder_16bit",
		difficulty:  Easy,
		machineDesc: "A 16-bit adder: sum the inputs a and b with carry-in Cin, producing the 16-bit result y and the carry-out Co via {Co, y}.",
		humanDesc:   "Implement a 16-bit full adder with carry in and carry out.",
		src: stdHeader + ` (
	input [15:0] a,
	input [15:0] b,
	input Cin,
	output [15:0] y,
	output Co
);
	assign {Co, y} = a + b + Cin;
endmodule
`,
	})

	addRTLLM(circuit{
		baseID:      "multi_16bit",
		difficulty:  Hard,
		machineDesc: "Multiply the 16-bit unsigned inputs ain and bin into the 32-bit product yout; assert done combinationally when en is high.",
		humanDesc:   "Build a 16-by-16 unsigned multiplier gated by an enable.",
		src: stdHeader + ` (
	input en,
	input [15:0] ain,
	input [15:0] bin,
	output [31:0] yout,
	output done
);
	assign yout = en ? ain * bin : 32'b0;
	assign done = en;
endmodule
`,
	})

	addRTLLM(circuit{
		baseID:      "jc_counter",
		difficulty:  Hard,
		machineDesc: "A 64-bit Johnson counter: on each clock shift right by one and feed the inverted LSB into the MSB: q <= {~q[0], q[63:1]}. Synchronous reset clears q.",
		humanDesc:   "Implement a 64-bit Johnson (twisted ring) counter.",
		clock:       "clk",
		src: stdHeader + ` (
	input clk,
	input rst,
	output reg [63:0] q
);
	always @(posedge clk) begin
		if (rst)
			q <= 0;
		else
			q <= {~q[0], q[63:1]};
	end
endmodule
`,
	})

	addRTLLM(circuit{
		baseID:      "right_shifter",
		difficulty:  Easy,
		machineDesc: "An 8-bit right shifter: each clock, shift q right by one and insert the serial input d into bit 7.",
		humanDesc:   "Build an 8-bit shift register that shifts right, taking new data into the top bit.",
		clock:       "clk",
		src: stdHeader + ` (
	input clk,
	input d,
	output reg [7:0] q
);
	always @(posedge clk)
		q <= {d, q[7:1]};
endmodule
`,
	})

	addRTLLM(circuit{
		baseID:      "counter_12",
		difficulty:  Hard,
		machineDesc: "A modulo-12 counter with enable: when valid_count is high count 0 to 11 and wrap; hold otherwise. Synchronous reset clears it.",
		humanDesc:   "Build a counter that cycles through 0-11 while enabled.",
		clock:       "clk",
		src: stdHeader + ` (
	input clk,
	input rst,
	input valid_count,
	output reg [3:0] out
);
	always @(posedge clk) begin
		if (rst)
			out <= 0;
		else if (valid_count) begin
			if (out == 11)
				out <= 0;
			else
				out <= out + 1;
		end
	end
endmodule
`,
	})

	addRTLLM(circuit{
		baseID:     "freq_div",
		difficulty: Hard,
		machineDesc: "Generate three divided clocks from counters: clk_div2 toggles every cycle, clk_div4 toggles every 2nd cycle, clk_div8 toggles " +
			"every 4th cycle (use a 3-bit counter). Synchronous reset clears everything.",
		humanDesc: "Produce divide-by-2, divide-by-4, and divide-by-8 versions of the input clock.",
		clock:     "clk",
		src: stdHeader + ` (
	input clk,
	input rst,
	output clk_div2,
	output clk_div4,
	output clk_div8
);
	reg [2:0] cnt;
	always @(posedge clk) begin
		if (rst)
			cnt <= 0;
		else
			cnt <= cnt + 1;
	end
	assign clk_div2 = cnt[0];
	assign clk_div4 = cnt[1];
	assign clk_div8 = cnt[2];
endmodule
`,
	})

	addRTLLM(circuit{
		baseID:     "signal_generator",
		difficulty: Hard,
		machineDesc: "A triangle-wave generator: a 5-bit value counts up to 31 then down to 0, repeating, with a direction register; " +
			"synchronous reset clears value and direction.",
		humanDesc: "Generate a triangle waveform that ramps up to 31 and back down to 0 forever.",
		clock:     "clk",
		src: stdHeader + ` (
	input clk,
	input rst,
	output reg [4:0] wave
);
	reg dir;
	always @(posedge clk) begin
		if (rst) begin
			wave <= 0;
			dir <= 0;
		end else begin
			if (dir == 0) begin
				if (wave == 31) begin
					dir <= 1;
					wave <= wave - 1;
				end else
					wave <= wave + 1;
			end else begin
				if (wave == 0) begin
					dir <= 0;
					wave <= wave + 1;
				end else
					wave <= wave - 1;
			end
		end
	end
endmodule
`,
	})

	addRTLLM(circuit{
		baseID:      "parallel2serial",
		difficulty:  Hard,
		machineDesc: "Load the 4-bit input when cnt is 0, then shift out MSB-first one bit per clock on dout with valid_out high; a 2-bit counter sequences the four bits.",
		humanDesc:   "Convert 4-bit parallel words into a continuous MSB-first serial stream.",
		clock:       "clk",
		src: stdHeader + ` (
	input clk,
	input rst,
	input [3:0] d,
	output valid_out,
	output dout
);
	reg [3:0] data;
	reg [1:0] cnt;
	always @(posedge clk) begin
		if (rst) begin
			data <= 0;
			cnt <= 0;
		end else begin
			if (cnt == 0)
				data <= d;
			else
				data <= {data[2:0], 1'b0};
			cnt <= cnt + 1;
		end
	end
	assign dout = data[3];
	assign valid_out = 1;
endmodule
`,
	})

	addRTLLM(circuit{
		baseID:      "pulse_detect",
		difficulty:  Hard,
		machineDesc: "Detect a 0-1-0 pulse on data_in: track the previous two samples in registers and assert data_out for the cycle where the pattern completes. Synchronous reset.",
		humanDesc:   "Detect single-cycle pulses in a serial input: output a pulse when the input goes low after exactly one high cycle.",
		clock:       "clk",
		src: stdHeader + ` (
	input clk,
	input rst,
	input data_in,
	output reg data_out
);
	reg p1;
	reg p2;
	always @(posedge clk) begin
		if (rst) begin
			p1 <= 0;
			p2 <= 0;
			data_out <= 0;
		end else begin
			data_out <= p2 == 0 && p1 == 1 && data_in == 0;
			p2 <= p1;
			p1 <= data_in;
		end
	end
endmodule
`,
	})

	addRTLLM(circuit{
		baseID:      "width_8to16",
		difficulty:  Hard,
		machineDesc: "Pair consecutive valid 8-bit inputs into one 16-bit output (first input in the high byte); pulse valid_out when the pair completes. Track a half-full flag. Synchronous reset.",
		humanDesc:   "Widen a byte stream to 16-bit words: every two valid bytes form one word, first byte high.",
		clock:       "clk",
		src: stdHeader + ` (
	input clk,
	input rst,
	input valid_in,
	input [7:0] data_in,
	output reg valid_out,
	output reg [15:0] data_out
);
	reg [7:0] hold;
	reg half;
	always @(posedge clk) begin
		if (rst) begin
			hold <= 0;
			half <= 0;
			valid_out <= 0;
			data_out <= 0;
		end else begin
			valid_out <= 0;
			if (valid_in) begin
				if (half) begin
					data_out <= {hold, data_in};
					valid_out <= 1;
					half <= 0;
				end else begin
					hold <= data_in;
					half <= 1;
				end
			end
		end
	end
endmodule
`,
	})

	addRTLLM(circuit{
		baseID:     "traffic_light",
		difficulty: Hard,
		machineDesc: "A traffic light FSM: green for 8 cycles, yellow for 2, red for 6, repeating; a 4-bit timer counts down and the 2-bit state " +
			"advances when it hits zero. Outputs one-hot {red, yellow, green}. Synchronous reset to green with timer 7.",
		humanDesc: "Control a traffic light cycling green (8 cycles), yellow (2), red (6).",
		clock:     "clk",
		src: stdHeader + ` (
	input clk,
	input rst,
	output red,
	output yellow,
	output green
);
	reg [1:0] state;
	reg [3:0] timer;
	always @(posedge clk) begin
		if (rst) begin
			state <= 0;
			timer <= 7;
		end else if (timer == 0) begin
			case (state)
				2'd0: begin state <= 2'd1; timer <= 1; end
				2'd1: begin state <= 2'd2; timer <= 5; end
				default: begin state <= 2'd0; timer <= 7; end
			endcase
		end else
			timer <= timer - 1;
	end
	assign green = state == 2'd0;
	assign yellow = state == 2'd1;
	assign red = state == 2'd2;
endmodule
`,
	})

	addRTLLM(circuit{
		baseID:     "alu",
		difficulty: Hard,
		machineDesc: "An 8-bit ALU over the 3-bit opcode: 0 add, 1 subtract, 2 and, 3 or, 4 xor, 5 shift-left-1, 6 shift-right-1, 7 pass a. " +
			"zero is high when the result is 0.",
		humanDesc: "Implement an 8-operation byte ALU with a zero flag.",
		src: stdHeader + ` (
	input [7:0] a,
	input [7:0] b,
	input [2:0] op,
	output reg [7:0] r,
	output zero
);
	always @(*) begin
		case (op)
			3'd0: r = a + b;
			3'd1: r = a - b;
			3'd2: r = a & b;
			3'd3: r = a | b;
			3'd4: r = a ^ b;
			3'd5: r = a << 1;
			3'd6: r = a >> 1;
			default: r = a;
		endcase
	end
	assign zero = r == 0;
endmodule
`,
	})

	addRTLLM(circuit{
		baseID:      "synchronizer",
		difficulty:  Hard,
		machineDesc: "A two-stage synchronizer: register data_in through two flip-flops in series; dout is the second stage.",
		humanDesc:   "Pass an asynchronous input through a standard two-flop synchronizer.",
		clock:       "clk",
		src: stdHeader + ` (
	input clk,
	input data_in,
	output dout
);
	reg s1;
	reg s2;
	always @(posedge clk) begin
		s1 <= data_in;
		s2 <= s1;
	end
	assign dout = s2;
endmodule
`,
	})

	addRTLLM(circuit{
		baseID:      "fsm_quad_seq",
		difficulty:  Hard,
		machineDesc: "A 4-state FSM advancing on in=1 and restarting on in=0 unless in state 3 which holds; match is high in state 3. Synchronous reset to state 0.",
		humanDesc:   "Recognize four consecutive 1s on the input and hold the match flag until reset by a 0.",
		clock:       "clk",
		src: stdHeader + ` (
	input clk,
	input rst,
	input in,
	output match
);
	reg [1:0] state;
	always @(posedge clk) begin
		if (rst)
			state <= 0;
		else if (in) begin
			if (state != 3)
				state <= state + 1;
		end else
			state <= 0;
	end
	assign match = state == 3;
endmodule
`,
	})
}
