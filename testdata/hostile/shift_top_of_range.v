module top_module(input [7:0] a, output [31:0] y, output [7:0] z);
	localparam P = 1 << 64'h8000000000000000;
	assign y = P;
	assign z = a << 64'h8000000000000000;
endmodule
