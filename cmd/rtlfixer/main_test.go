package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI invokes run with captured output.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitZeroWhenFixed(t *testing.T) {
	code, stdout, stderr := runCLI("-demo", "-quiet")
	if code != 0 {
		t.Fatalf("exit = %d (stderr: %s), want 0 for a successful fix", code, stderr)
	}
	if !strings.Contains(stdout, "endmodule") {
		t.Fatalf("no final code on stdout: %q", stdout)
	}
}

// TestExitNonZeroWhenFixFails is the contract scripts and the loadgen
// harness rely on: an unfixed input must surface in the exit code.
func TestExitNonZeroWhenFixFails(t *testing.T) {
	// The simple persona's log carries no location information and one
	// iteration is not enough: this configuration deterministically
	// leaves the demo broken (seed 1).
	code, _, stderr := runCLI("-demo", "-quiet", "-compiler", "simple", "-rag=false", "-iters", "1")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 when the fix fails", code)
	}
	if !strings.Contains(stderr, "syntax errors remain") {
		t.Fatalf("failure not reported on stderr: %q", stderr)
	}
}

// TestExitNonZeroWhenAnyBatchFileFails: one bad apple fails the batch.
func TestExitNonZeroWhenAnyBatchFileFails(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.v")
	bad := filepath.Join(dir, "bad.v")
	if err := os.WriteFile(good, []byte("module m;\nendmodule\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte(demoSource), 0o644); err != nil {
		t.Fatal(err)
	}
	// Same crippled configuration as above so bad.v stays broken.
	code, stdout, _ := runCLI("-quiet", "-compiler", "simple", "-rag=false", "-iters", "1", good, bad)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 when one of two files fails", code)
	}
	if !strings.Contains(stdout, "==> "+good) || !strings.Contains(stdout, "==> "+bad) {
		t.Fatalf("batch headers missing: %q", stdout)
	}
	// The all-good batch exits clean.
	if code, _, stderr := runCLI("-quiet", good); code != 0 {
		t.Fatalf("all-good batch exit = %d (stderr: %s), want 0", code, stderr)
	}
}

func TestExitCodesForBadInvocation(t *testing.T) {
	if code, _, _ := runCLI(); code != 2 {
		t.Fatalf("no-args exit = %d, want 2", code)
	}
	if code, _, _ := runCLI("-no-such-flag"); code != 2 {
		t.Fatalf("bad-flag exit = %d, want 2", code)
	}
	if code, _, stderr := runCLI(filepath.Join(t.TempDir(), "missing.v")); code != 1 || !strings.Contains(stderr, "missing.v") {
		t.Fatalf("missing-file exit = %d (stderr: %s), want 1", code, stderr)
	}
	if code, _, _ := runCLI("-demo", "-compiler", "vcs"); code != 1 {
		t.Fatalf("unknown-compiler exit = %d, want 1", code)
	}
}

func TestHelpExitsZero(t *testing.T) {
	if code, _, stderr := runCLI("-h"); code != 0 {
		t.Fatalf("-h exit = %d (stderr: %s), want 0", code, stderr)
	}
	if code, _, _ := runCLI("--help"); code != 0 {
		t.Fatal("--help must exit 0")
	}
}

// TestCoverageMatchesVlint: rtlfixer -coverage and vlint -coverage find
// the clock the same way (sim.ClockInput) and print the same summary.
// An input named clk_en is not a clock, and one named clock is; a text
// match on "input clk" once got both wrong in rtlfixer alone.
func TestCoverageMatchesVlint(t *testing.T) {
	dir := t.TempDir()
	vlint := filepath.Join(dir, "vlint")
	if out, err := exec.Command("go", "build", "-o", vlint, "repro/cmd/vlint").CombinedOutput(); err != nil {
		t.Fatalf("building vlint: %v\n%s", err, out)
	}
	designs := map[string]string{
		"clk_en.v": `module top_module(input clk_en, input [3:0] d, output [3:0] q);
	assign q = clk_en ? d : 4'd0;
endmodule
`,
		"clock.v": `module top_module(input clock, input [3:0] d, output reg [3:0] q);
	always @(posedge clock) q <= d;
endmodule
`,
	}
	for name, src := range designs {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		code, _, stderr := runCLI("-quiet", "-coverage", path)
		if code != 0 {
			t.Fatalf("%s: rtlfixer exit = %d (stderr: %s)", name, code, stderr)
		}
		got, ok := strings.CutPrefix(strings.TrimSpace(stderr), "rtlfixer: "+path+": ")
		if !ok {
			t.Fatalf("%s: no rtlfixer coverage summary in %q", name, stderr)
		}
		out, err := exec.Command(vlint, "-coverage", path).CombinedOutput()
		if err != nil {
			t.Fatalf("%s: vlint: %v\n%s", name, err, out)
		}
		var want string
		for _, line := range strings.Split(string(out), "\n") {
			if s, ok := strings.CutPrefix(line, "vlint: "+path+": "); ok {
				want = s
			}
		}
		if want == "" || got != want {
			t.Errorf("%s: rtlfixer -coverage = %q, vlint -coverage = %q", name, got, want)
		}
		if !strings.HasPrefix(got, "coverage 100.0%: 18/18 toggle points") {
			t.Errorf("%s: coverage = %q, want all 18 toggle points", name, got)
		}
	}
}
