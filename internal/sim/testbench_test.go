// Direct unit tests for testbench.go: lockstep stepping against a
// reference design, cycle accounting, and mismatch reporting. (sim_test.go
// covers the runner end-to-end on counters; these tests pin down the
// testbench contract itself.)
package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bitvec"
)

// runAgainst simulates the candidate source beside the reference source
// on the same vectors.
func runAgainst(t *testing.T, cand, ref, clock string, vectors []Vector) (TBResult, error) {
	t.Helper()
	return RunTestbenchSim(newSim(t, cand), clock, vectors, newSim(t, ref))
}

const wireSrc = `
module wires(input [3:0] a, output [3:0] y, output [3:0] z);
	assign y = a;
	assign z = ~a;
endmodule`

func vec4(v uint64) bitvec.Vec { return bitvec.FromUint64(4, v) }

func aVectors(vals ...uint64) []Vector {
	vectors := make([]Vector, len(vals))
	for i, v := range vals {
		vectors[i] = Vector{Inputs: map[string]bitvec.Vec{"a": vec4(v)}}
	}
	return vectors
}

const ctrSrc = `
module counter(input clk, input reset, output reg [3:0] q);
	always @(posedge clk) begin
		if (reset) q <= 0;
		else q <= q + 1;
	end
endmodule`

// TestTestbenchResetsReferenceAndCountsCycles: both simulators start the
// run from power-on state whatever ran on them before, and every vector
// counts one cycle.
func TestTestbenchResetsReferenceAndCountsCycles(t *testing.T) {
	s, ref := newSim(t, ctrSrc), newSim(t, ctrSrc)
	for i := 0; i < 5; i++ { // leave the reference 5 counts ahead
		if err := ref.ClockPulse("clk"); err != nil {
			t.Fatal(err)
		}
	}
	// no reset in the vectors: only the runner's reset aligns the two
	vectors := make([]Vector, 6)
	for i := range vectors {
		vectors[i] = Vector{Inputs: map[string]bitvec.Vec{"reset": bitvec.FromUint64(1, 0)}}
	}
	for run := 0; run < 2; run++ { // a rerun on the same pair starts clean too
		res, err := RunTestbenchSim(s, "clk", vectors, ref)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles != len(vectors) {
			t.Fatalf("run %d: Cycles = %d, want %d", run, res.Cycles, len(vectors))
		}
		if !res.Passed() || res.FirstMismatch != "" {
			t.Fatalf("run %d: reference not reset before the run: %+v", run, res)
		}
	}
}

// TestTestbenchComparesReferenceOutputsOnly: a candidate output the
// reference does not have is not part of the spec.
func TestTestbenchComparesReferenceOutputsOnly(t *testing.T) {
	res, err := runAgainst(t, wireSrc, `
module wires(input [3:0] a, output [3:0] y);
	assign y = a;
endmodule`, "", aVectors(1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() || res.Cycles != 3 {
		t.Fatalf("extra candidate output was compared: %+v", res)
	}
}

// constSrc is a reference insisting y == 0 and z == 15 always: true of
// wireSrc only when a == 0.
const constSrc = `
module wires(input [3:0] a, output [3:0] y, output [3:0] z);
	assign y = 4'd0;
	assign z = 4'd15;
endmodule`

func TestTestbenchMismatchCountingAndFirstReport(t *testing.T) {
	// a == 0 matches; a == 5 and a == 1 get y and z both wrong
	res, err := runAgainst(t, wireSrc, constSrc, "", aVectors(0, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() {
		t.Fatal("mismatching run reported as passed")
	}
	// Two wrong outputs in each of two failing cycles: every (cycle,
	// output) pair counts.
	if res.Mismatches != 4 {
		t.Fatalf("Mismatches = %d, want 4", res.Mismatches)
	}
	// The first failing sample is cycle 1; outputs are compared in
	// sorted name order, so y reports before z.
	want := fmt.Sprintf("cycle 1: output y = %s, expected %s", vec4(5).Hex(), vec4(0).Hex())
	if res.FirstMismatch != want {
		t.Fatalf("FirstMismatch = %q, want %q", res.FirstMismatch, want)
	}
}

func TestTestbenchFirstMismatchSticksToEarliest(t *testing.T) {
	res, err := runAgainst(t, wireSrc, `
module wires(input [3:0] a, output [3:0] y, output [3:0] z);
	assign y = 4'd7;
	assign z = ~a;
endmodule`, "", aVectors(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.FirstMismatch, "cycle 0:") {
		t.Fatalf("FirstMismatch %q does not describe the earliest failure", res.FirstMismatch)
	}
}

func TestTestbenchRejectsUnknownInput(t *testing.T) {
	vectors := []Vector{{Inputs: map[string]bitvec.Vec{"bogus": vec4(1)}}}
	_, err := runAgainst(t, wireSrc, wireSrc, "", vectors)
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("driving an unknown input returned %v, want a naming error", err)
	}
	if _, err := RunTestbenchSim(newSim(t, wireSrc), "", aVectors(1), nil); err == nil {
		t.Fatal("a run without a reference must error")
	}
}

func TestTestbenchClockIsRunnerOwned(t *testing.T) {
	// Driving the clock from a vector must be ignored (the runner owns
	// it): a vector naming clk is not an unknown-input error, and the
	// flop still loads din exactly once per vector, which is what the
	// combinational reference computes.
	vectors := []Vector{
		{Inputs: map[string]bitvec.Vec{"din": vec4(9), "clk": bitvec.FromUint64(1, 1)}},
		{Inputs: map[string]bitvec.Vec{"din": vec4(4)}},
	}
	res, err := runAgainst(t, `
module dff(input clk, input [3:0] din, output reg [3:0] q);
	always @(posedge clk) q <= din;
endmodule`, `
module dff(input clk, input [3:0] din, output [3:0] q);
	assign q = din;
endmodule`, "clk", vectors)
	if err != nil {
		t.Fatalf("vector naming the clock errored: %v", err)
	}
	if !res.Passed() || res.Cycles != 2 {
		t.Fatalf("clocked run failed: %+v", res)
	}
}

func TestTestbenchExpectedValueResizedInReport(t *testing.T) {
	// The reference's output is wider than the candidate's port: the
	// report must render it at the port's width (Resize in testbench.go).
	res, err := runAgainst(t, wireSrc, `
module wires(input [3:0] a, output [7:0] y, output [3:0] z);
	assign y = 8'h12;
	assign z = ~a;
endmodule`, "", aVectors(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() {
		t.Fatal("width-mismatched expectation passed")
	}
	wantSuffix := fmt.Sprintf("expected %s", bitvec.FromUint64(8, 0x12).Resize(4).Hex())
	if !strings.HasSuffix(res.FirstMismatch, wantSuffix) {
		t.Fatalf("FirstMismatch = %q, want suffix %q", res.FirstMismatch, wantSuffix)
	}
}
