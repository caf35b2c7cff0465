module top_module(input [63:0] x, output [31:0] y);
	assign y = $clog2(x);
endmodule
