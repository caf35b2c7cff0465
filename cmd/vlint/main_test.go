package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/sim"
)

// loopNest runs 60000 × 60000 loop trips in every clock edge.
const loopNest = `module top_module(input clk, output reg [31:0] q);
  integer i, j;
  always @(posedge clk)
    for (i = 0; i < 60000; i = i + 1)
      for (j = 0; j < 60000; j = j + 1)
        q = q + 1;
endmodule
`

// TestCoverageLoopNestSkippedByWatchdog: -coverage and -vcd simulate
// under the sim check's fixed watchdog budget, so a design that would
// run for hours is reported as skipped by the watchdog in about
// sim.CheckWall instead of holding vlint until it is killed.
func TestCoverageLoopNestSkippedByWatchdog(t *testing.T) {
	_, design, _ := compiler.Frontend(loopNest)
	if design == nil {
		t.Fatal("the loop nest does not elaborate")
	}
	var out bytes.Buffer
	start := time.Now()
	if err := observeRun(&out, "nest.v", loopNest, design, true, ""); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > sim.CheckWall+3*time.Second {
		t.Fatalf("the run took %v, budget %v", el, sim.CheckWall)
	}
	if got := out.String(); !strings.HasPrefix(got, "vlint: nest.v: simulation skipped: watchdog") {
		t.Fatalf("stderr = %q, want a watchdog skip", got)
	}
}

// TestCoverageHealthyDesignReports: a healthy design still gets its
// coverage line under the budget.
func TestCoverageHealthyDesignReports(t *testing.T) {
	const src = "module top_module(input clk, input d, output reg q);\n  always @(posedge clk) q <= d;\nendmodule\n"
	_, design, _ := compiler.Frontend(src)
	var out bytes.Buffer
	if err := observeRun(&out, "ok.v", src, design, true, ""); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.HasPrefix(got, "vlint: ok.v: ") || strings.Contains(got, "skipped") {
		t.Fatalf("stderr = %q, want a coverage line", got)
	}
}
