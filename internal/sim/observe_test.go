package sim

import (
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/wave"
)

const obsCtrSrc = `
module ctr(input clk, input rst, output reg [3:0] q);
	always @(posedge clk) begin
		if (rst) q <= 0;
		else q <= q + 1;
	end
endmodule`

// TestObserveDetachedZeroAllocs: attaching and then detaching an
// observer must leave the engine on its zero-allocation steady state —
// the nil check in Settle is the entire residual cost.
func TestObserveDetachedZeroAllocs(t *testing.T) {
	s, err := NewWith(buildDesign(t, obsCtrSrc), EngineCompiled)
	if err != nil {
		t.Fatal(err)
	}
	cov := wave.NewCoverage()
	s.Observe(cov)
	step := func() {
		if err := s.SetInputUint("rst", 0); err != nil {
			t.Fatal(err)
		}
		if err := s.ClockPulse("clk"); err != nil {
			t.Fatal(err)
		}
	}
	step()
	s.Observe(nil)
	step() // re-reach steady state with observation off
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("detached cycle allocated %.2f/op, want 0", allocs)
	}
	if st := cov.Stats(); st.Toggles == 0 {
		t.Fatal("coverage observed nothing while attached")
	}
}

// TestObserveCoverageBothBackends: the facade hook lives above the
// backend split, so the walker is observable too and both backends see
// the same toggles on the same design.
func TestObserveCoverageBothBackends(t *testing.T) {
	for _, eng := range []Engine{EngineCompiled, EngineWalker} {
		s, err := NewWith(buildDesign(t, obsCtrSrc), eng)
		if err != nil {
			t.Fatal(err)
		}
		cov := wave.NewCoverage()
		s.Observe(cov)
		s.EnableActivations()
		s.SetInputUint("rst", 0)
		for i := 0; i < 8; i++ {
			if err := s.ClockPulse("clk"); err != nil {
				t.Fatal(err)
			}
		}
		cov.AddActivations(s.Activations())
		st := cov.Stats()
		// clk toggles every cycle and q counts 1..8: bits 0..3 all rise.
		if st.BitsToggled < 4 {
			t.Errorf("engine %v: BitsToggled = %d, want >= 4", eng, st.BitsToggled)
		}
		// only the compiled engine counts process activations
		if eng == EngineCompiled && (st.ProcessesActive != 1 || st.Processes != 1) {
			t.Errorf("engine %v: processes %d/%d, want 1/1", eng, st.ProcessesActive, st.Processes)
		}
		if cov.Signature().Empty() {
			t.Errorf("engine %v: empty signature", eng)
		}
	}
}

// failRefSrc counts like obsCtrSrc for two cycles after reset, then
// steps by two: the candidate mismatches from the third counted cycle on.
const failRefSrc = `
module ctr(input clk, input rst, output reg [3:0] q);
	always @(posedge clk) begin
		if (rst) q <= 0;
		else if (q >= 2) q <= q + 2;
		else q <= q + 1;
	end
endmodule`

// TestTestbenchWaveformOnFailure: a failing observed run attaches a
// parseable VCD excerpt windowed around the first mismatch.
func TestTestbenchWaveformOnFailure(t *testing.T) {
	s, err := New(buildDesign(t, obsCtrSrc))
	if err != nil {
		t.Fatal(err)
	}
	vectors := make([]Vector, 8)
	for i := range vectors {
		vectors[i] = Vector{Inputs: map[string]bitvec.Vec{"rst": bitvec.FromUint64(1, 0)}}
	}
	o := TBObserve{Recorder: wave.NewRecorder(8), Coverage: wave.NewCoverage(), Profile: true}
	res, err := RunTestbenchObserved(s, "clk", vectors, newSim(t, failRefSrc), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() || res.FirstMismatch != "cycle 2: output q = 4'h3, expected 4'h4" {
		t.Fatalf("run should fail from the third cycle on, got %+v", res)
	}
	if res.Waveform == "" {
		t.Fatal("failing observed run must attach a waveform")
	}
	for _, want := range []string{
		"$timescale", "$scope module ctr $end", "$var wire 1", "$var wire 4",
		"$enddefinitions $end", "$dumpvars", "$comment window around",
	} {
		if !strings.Contains(res.Waveform, want) {
			t.Errorf("VCD excerpt missing %q:\n%s", want, res.Waveform)
		}
	}
	if !o.Recorder.Marked() {
		t.Error("recorder should be marked at the first mismatch")
	}
	if cs := o.Coverage.Stats(); cs.Toggles == 0 || cs.ProcessesActive == 0 {
		t.Errorf("coverage empty after observed run: %+v", cs)
	}
	if res.Profile == nil || res.Profile.Instructions == 0 {
		t.Fatalf("profile missing: %+v", res.Profile)
	}
	if h := res.Profile.Hottest(); h.Kind != "seq" || h.Activations == 0 {
		t.Errorf("hottest process = %+v, want active seq block", h)
	}
}

// TestEngineProfileCounts sanity-checks the opcode histogram and settle
// accounting against a deterministic run.
func TestEngineProfileCounts(t *testing.T) {
	s, err := NewWith(buildDesign(t, `
module m(input clk, input [3:0] a, output [3:0] y, output reg [3:0] r);
	assign y = a + 1;
	always @(posedge clk) r <= y;
endmodule`), EngineCompiled)
	if err != nil {
		t.Fatal(err)
	}
	if !s.EnableProfile() {
		t.Fatal("compiled backend must support profiling")
	}
	s.SetInputUint("a", 3)
	for i := 0; i < 4; i++ {
		if err := s.ClockPulse("clk"); err != nil {
			t.Fatal(err)
		}
	}
	p := s.Profile()
	if p == nil || p.Instructions == 0 {
		t.Fatalf("empty profile: %+v", p)
	}
	if p.Settles != 12 { // 3 settles per ClockPulse
		t.Errorf("settles = %d, want 12", p.Settles)
	}
	ops := map[string]uint64{}
	for _, oc := range p.Ops {
		ops[oc.Op] = oc.Count
	}
	if ops["add"] == 0 {
		t.Errorf("add missing from opcode histogram: %v", ops)
	}
	if len(p.Processes) != 2 {
		t.Fatalf("processes = %+v, want assign + seq", p.Processes)
	}
	// Re-arming zeroes the counters.
	s.EnableProfile()
	if p2 := s.Profile(); p2.Instructions != 0 || p2.Settles != 0 {
		t.Errorf("re-arm did not zero counters: %+v", p2)
	}
}

// TestDiffCoverageAndRecorder: the differential path feeds the engine
// side into coverage, and walker-only simulators still count
// activations.
func TestDiffCoverageAndRecorder(t *testing.T) {
	cov := wave.NewCoverage()
	rep, err := DiffSource(obsCtrSrc, DiffConfig{Clock: "clk", Cycles: 8, Coverage: cov, Recorder: wave.NewRecorder(4)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diverged() {
		t.Fatalf("backends diverged: %+v", rep.Mismatches)
	}
	if cov.Signature().Empty() {
		t.Fatal("differential run produced no coverage")
	}
	st := cov.Stats()
	if st.Processes == 0 || st.ProcessesActive == 0 {
		t.Errorf("activations not folded: %+v", st)
	}
}
