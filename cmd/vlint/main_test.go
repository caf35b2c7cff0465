package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/diag"
	"repro/internal/sim"
	"repro/internal/verilog"
)

// TestMain runs vlint itself when VLINT_MAIN is set, so a test can run
// the command line by re-executing the test binary.
func TestMain(m *testing.M) {
	if os.Getenv("VLINT_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runVlint runs vlint with args and returns its stdout.
func runVlint(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "VLINT_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("vlint %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out)
}

// TestPrintReparses: -print writes source that parses cleanly again and
// keeps what the design says: a unary of a unary, and a block-local
// declaration's signedness and initializer.
func TestPrintReparses(t *testing.T) {
	const src = `module m(input clk, input [3:0] a, input [3:0] d, output [3:0] y, output reg [3:0] q);
	assign y = - -a;
	always @(posedge clk) begin : blk
		reg signed [3:0] t;
		integer k = 2;
		t = d;
		q <= t + k;
	end
endmodule
`
	path := filepath.Join(t.TempDir(), "m.v")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	printed := runVlint(t, "-print", path)
	file, diags := verilog.Parse(printed)
	if diags.HasErrors() {
		t.Fatalf("printed source does not re-parse: %s\n%s", diags.Summary(), printed)
	}
	items := file.Modules[0].Items
	if rhs := verilog.FormatExpr(items[0].(*verilog.AssignItem).RHS); rhs != "-(-(a))" {
		t.Fatalf("- -a was printed back as %s:\n%s", rhs, printed)
	}
	decls := items[1].(*verilog.AlwaysBlock).Body.(*verilog.BlockStmt).Decls
	if len(decls) != 2 || !decls[0].Signed || decls[1].Names[0].Init == nil {
		t.Fatalf("the block-local declarations lost signed or the initializer:\n%s", printed)
	}
}

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

// TestDesignBitsLimitCoverage: the 969 KB request of 120000 registers of
// 2^16 bits each (about a gigabyte of state) has no design behind the
// frontend, so -coverage reports the resource-limit diagnostic instead of
// simulating. vlint used to die of a fatal out-of-memory here.
func TestDesignBitsLimitCoverage(t *testing.T) {
	var b strings.Builder
	b.WriteString("module top_module(input clk, output y);\n\treg [65535:0] s0")
	for i := 1; i < 120000; i++ {
		fmt.Fprintf(&b, ", s%d", i)
	}
	b.WriteString(";\n\tassign y = clk;\nendmodule\n")
	src := b.String()

	_, design, diags := compiler.Frontend(src)
	if design != nil || !diags.HasErrors() || diags[0].Category != diag.CatResourceLimit {
		t.Fatalf("frontend: design %v, diagnostics %s; want a resource-limit error and no design", design != nil, diags.Summary())
	}

	path := filepath.Join(t.TempDir(), "many.v")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-style", "raw", "-coverage", path)
	cmd.Env = append(os.Environ(), "VLINT_MAIN=1")
	out, err := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 1 {
		t.Fatalf("vlint exit %d (%v), want 1:\n%.2000s", code, err, out)
	}
	if !strings.Contains(string(out), "error[resource-limit] module 'top_module' declares") {
		t.Fatalf("no design-bits diagnostic in:\n%.2000s", out)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && ru.Maxrss > 512<<10 {
		t.Fatalf("vlint peaked at %d MB resident", ru.Maxrss>>10)
	}
}
