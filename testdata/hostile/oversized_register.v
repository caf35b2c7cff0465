module top_module(input clk, output reg [1999999999:0] q);
	always @(posedge clk) q <= ~q;
endmodule
