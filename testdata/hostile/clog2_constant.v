module top_module(output [31:0] y);
	localparam P = $clog2(64'hFFFFFFFFFFFFFFFF);
	assign y = P;
endmodule
