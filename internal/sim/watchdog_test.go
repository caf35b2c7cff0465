package sim

import (
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/resilience"
	"repro/internal/sema"
	"repro/internal/verilog"
)

func buildSim(t *testing.T, eng Engine) *Simulator {
	t.Helper()
	src := `module top_module(input clk, input [3:0] in, output reg [3:0] out);
  wire [3:0] next = in ^ 4'b0101;
  always @(posedge clk) out <= next;
endmodule
`
	mod, diags := verilog.Parse(src)
	if mod == nil {
		t.Fatalf("parse: %v", diags)
	}
	d, derr := sema.Elaborate(mod)
	if d == nil {
		t.Fatalf("elaborate: %v", derr)
	}
	sm, err := NewWith(d, eng)
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

// TestWatchdogStepBudget: each Settle (and each of ClockPulse's three
// internal settles) consumes a step; exceeding the budget cancels the
// run with a typed watchdog error on both backends.
func TestWatchdogStepBudget(t *testing.T) {
	for _, eng := range []Engine{EngineCompiled, EngineWalker} {
		sm := buildSim(t, eng)
		sm.SetWatchdog(resilience.NewWatchdog(0, 4))
		if err := sm.ClockPulse("clk"); err != nil { // 3 steps
			t.Fatalf("engine %v: first pulse: %v", eng, err)
		}
		err := sm.ClockPulse("clk") // steps 4, 5: trips mid-pulse
		if err == nil || !resilience.IsWatchdog(err) {
			t.Fatalf("engine %v: over-budget pulse err = %v", eng, err)
		}
		sm.SetWatchdog(nil) // disarmed: runs freely again
		if err := sm.ClockPulse("clk"); err != nil {
			t.Fatalf("engine %v: disarmed pulse: %v", eng, err)
		}
	}
}

// TestWatchdogWallClockUnderStall: an injected sim.stall plus a small
// wall budget cancels the simulation instead of letting it run away.
func TestWatchdogWallClockUnderStall(t *testing.T) {
	fault.Install(fault.MustParse("sim.stall:1:20ms", 1))
	defer fault.Uninstall()
	sm := buildSim(t, EngineCompiled)
	sm.SetWatchdog(resilience.NewWatchdog(5*time.Millisecond, 0))
	var err error
	for i := 0; i < 3 && err == nil; i++ {
		err = sm.Settle()
	}
	if err == nil || !resilience.IsWatchdog(err) {
		t.Fatalf("stalled sim not canceled: %v", err)
	}
}

// TestWatchdogStopsLoopNest: a clock edge running 60000 × 60000 loop
// trips stays under each loop's own trip limit; the trips charged to an
// armed wall-clock watchdog cancel it on both backends.
func TestWatchdogStopsLoopNest(t *testing.T) {
	const src = `module top_module(input clk, output reg [31:0] q);
  integer i, j;
  always @(posedge clk)
    for (i = 0; i < 60000; i = i + 1)
      for (j = 0; j < 60000; j = j + 1)
        q = q + 1;
endmodule
`
	mod, diags := verilog.Parse(src)
	if mod == nil {
		t.Fatalf("parse: %v", diags)
	}
	d, derr := sema.Elaborate(mod)
	if d == nil {
		t.Fatalf("elaborate: %v", derr)
	}
	for _, eng := range []Engine{EngineCompiled, EngineWalker} {
		sm, err := NewWith(d, eng)
		if err != nil {
			t.Fatalf("engine %v: %v", eng, err)
		}
		sm.SetWatchdog(resilience.NewWatchdog(20*time.Millisecond, 0))
		start := time.Now()
		err = sm.ClockPulse("clk")
		if err == nil || !resilience.IsWatchdog(err) {
			t.Fatalf("engine %v: loop nest err = %v, want a watchdog trip", eng, err)
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Fatalf("engine %v: loop nest stopped after %v, budget 20ms", eng, el)
		}
	}
}

// TestDiffSourceWatchdog: DiffSource runs untrusted source under the
// CheckWall/CheckSteps budget, so the loop nest ends as a watchdog
// error within about CheckWall for both backends together, and a
// healthy design's run is not cut short, however many cycles it drives:
// the wall budget grows by one CheckWall per wallCycles cycles.
func TestDiffSourceWatchdog(t *testing.T) {
	const nest = `module top_module(input clk, output reg [31:0] q);
  integer i, j;
  always @(posedge clk)
    for (i = 0; i < 60000; i = i + 1)
      for (j = 0; j < 60000; j = j + 1)
        q = q + 1;
endmodule
`
	start := time.Now()
	_, err := DiffSource(nest, DiffConfig{Clock: "clk", Cycles: 8, Seed: 1})
	if !resilience.IsWatchdog(err) {
		t.Fatalf("loop nest err = %v, want a watchdog trip", err)
	}
	if el := time.Since(start); el > CheckWall+3*time.Second {
		t.Fatalf("loop nest stopped after %v, budget %v", el, CheckWall)
	}

	const healthy = "module top_module(input clk, input [3:0] d, output reg [3:0] q);\n  always @(posedge clk) q <= d;\nendmodule\n"
	rep, err := DiffSource(healthy, DiffConfig{Clock: "clk", Cycles: 64, Seed: 1})
	if err != nil || rep.Cycles != 64 || rep.Halted || rep.Diverged() {
		t.Fatalf("healthy design: report %+v, err %v; want 64 clean cycles", rep, err)
	}
	const long = 100 * wallCycles
	rep, err = DiffSource(healthy, DiffConfig{Clock: "clk", Cycles: long, Seed: 1})
	if err != nil || rep.Cycles != long || rep.Halted || rep.Diverged() {
		t.Fatalf("healthy design, %d cycles: report %+v, err %v; want clean cycles", long, rep, err)
	}

	for _, c := range []struct {
		cycles int
		want   time.Duration
	}{{1, CheckWall}, {wallCycles, CheckWall}, {wallCycles + 1, 2 * CheckWall}, {long, 100 * CheckWall}} {
		if got := diffWall(c.cycles); got != c.want {
			t.Errorf("diffWall(%d) = %v, want %v", c.cycles, got, c.want)
		}
	}
}
