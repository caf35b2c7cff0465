package analyze

import (
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/sema"
)

// findingsFor runs one rule over a source and returns its findings.
func findingsFor(t *testing.T, rule, src string) diag.List {
	t.Helper()
	return Source(src, Options{Rules: []string{rule}})
}

// fires asserts the rule reports (or stays silent on) the source, and
// returns the findings for further checks.
func fires(t *testing.T, rule, src string, want bool) diag.List {
	t.Helper()
	got := findingsFor(t, rule, src)
	if (len(got) > 0) != want {
		t.Fatalf("rule %s: want fire=%v, got %d findings: %v", rule, want, len(got), got)
	}
	return got
}

func TestInferredLatch(t *testing.T) {
	pos := `module m(input sel, input a, output reg y);
	always @(*) begin
		if (sel) y = a;
	end
endmodule`
	got := fires(t, "inferred-latch", pos, true)
	if got[0].Symbol != "y" || got[0].Rule != "L001" {
		t.Fatalf("bad finding: %+v", got[0])
	}
	neg := `module m(input sel, input a, input b, output reg y);
	always @(*) begin
		if (sel) y = a; else y = b;
	end
endmodule`
	fires(t, "inferred-latch", neg, false)
	// A case with a default arm assigns on every path.
	negCase := `module m(input [1:0] s, input a, output reg y);
	always @(*) begin
		case (s)
			2'd0: y = a;
			default: y = 1'b0;
		endcase
	end
endmodule`
	fires(t, "inferred-latch", negCase, false)
	posCase := `module m(input [1:0] s, input a, output reg y);
	always @(*) begin
		case (s)
			2'd0: y = a;
			2'd1: y = 1'b1;
		endcase
	end
endmodule`
	fires(t, "inferred-latch", posCase, true)
	// A default-value-first block assigns on every path.
	negDefault := `module m(input sel, input a, output reg y);
	always @(*) begin
		y = 1'b0;
		if (sel) y = a;
	end
endmodule`
	fires(t, "inferred-latch", negDefault, false)
}

func TestIncompleteSensitivity(t *testing.T) {
	pos := `module m(input a, input b, output reg y);
	always @(a) begin
		y = a & b;
	end
endmodule`
	got := fires(t, "incomplete-sensitivity", pos, true)
	if !strings.Contains(got[0].Message, "'b'") {
		t.Fatalf("missing signal not named: %s", got[0].Message)
	}
	neg := `module m(input a, input b, output reg y);
	always @(a or b) begin
		y = a & b;
	end
endmodule`
	fires(t, "incomplete-sensitivity", neg, false)
	// @(*) blocks and clocked blocks are exempt.
	fires(t, "incomplete-sensitivity", `module m(input a, input b, output reg y);
	always @(*) y = a & b;
endmodule`, false)
	fires(t, "incomplete-sensitivity", `module m(input clk, input d, output reg q);
	always @(posedge clk) q <= d;
endmodule`, false)
}

func TestNonblockingInComb(t *testing.T) {
	pos := `module m(input a, output reg y);
	always @(*) begin
		y <= a;
	end
endmodule`
	got := fires(t, "nonblocking-in-comb", pos, true)
	if got[0].Category != diag.CatAssignStyle {
		t.Fatalf("category = %v", got[0].Category)
	}
	neg := `module m(input a, output reg y);
	always @(*) y = a;
endmodule`
	fires(t, "nonblocking-in-comb", neg, false)
}

func TestBlockingInSeq(t *testing.T) {
	pos := `module m(input clk, input d, output reg q);
	always @(posedge clk) begin
		q = d;
	end
endmodule`
	fires(t, "blocking-in-seq", pos, true)
	neg := `module m(input clk, input d, output reg q);
	always @(posedge clk) q <= d;
endmodule`
	fires(t, "blocking-in-seq", neg, false)
	// Scratch integers updated with '=' inside clocked blocks are idiomatic.
	negInt := `module m(input clk, input [3:0] d, output reg [3:0] q);
	integer i;
	always @(posedge clk) begin
		for (i = 0; i < 4; i = i + 1) q[i] <= d[i];
	end
endmodule`
	fires(t, "blocking-in-seq", negInt, false)
}

func TestWriteRace(t *testing.T) {
	pos := `module m(input clk, input a, input b, output reg q);
	always @(posedge clk) q <= a;
	always @(posedge clk) q <= b;
endmodule`
	got := fires(t, "write-race", pos, true)
	if len(got[0].Related) != 1 {
		t.Fatalf("want the second drive site in Related, got %+v", got[0])
	}
	if !got[0].Pos.Before(got[0].Related[0]) {
		t.Fatalf("primary site should precede related site: %+v", got[0])
	}
	neg := `module m(input clk, input a, output reg q, output reg r);
	always @(posedge clk) q <= a;
	always @(posedge clk) r <= a;
endmodule`
	fires(t, "write-race", neg, false)
	// Procedural vs continuous drivers fight too.
	posMixed := `module m(input a, output reg q);
	wire w = a;
	always @(*) q = a;
	assign q = w;
endmodule`
	fires(t, "write-race", posMixed, true)
}

func TestCombLoop(t *testing.T) {
	pos := `module m(input a, output y);
	wire b;
	assign b = y & a;
	assign y = b | a;
endmodule`
	got := fires(t, "comb-loop", pos, true)
	if !strings.Contains(got[0].Message, "'b'") || !strings.Contains(got[0].Message, "'y'") {
		t.Fatalf("cycle members not listed: %s", got[0].Message)
	}
	neg := `module m(input a, output y);
	wire b;
	assign b = a;
	assign y = b | a;
endmodule`
	fires(t, "comb-loop", neg, false)
	// A register breaks the cycle.
	negReg := `module m(input clk, input a, output reg q);
	wire d = q ^ a;
	always @(posedge clk) q <= d;
endmodule`
	fires(t, "comb-loop", negReg, false)
	// Initialise-then-accumulate is not a loop: the self-read sees the
	// value this activation already computed.
	negAccum := `module m(input [3:0] in, output reg p);
	integer i;
	always @(*) begin
		p = 1'b0;
		for (i = 0; i < 4; i = i + 1) p = p ^ in[i];
	end
endmodule`
	fires(t, "comb-loop", negAccum, false)
	// Self-dependence within one comb always is a loop.
	posSelf := `module m(input a, output reg y);
	always @(*) y = y ^ a;
endmodule`
	fires(t, "comb-loop", posSelf, true)
}

func TestWidthTrunc(t *testing.T) {
	pos := `module m(input [7:0] a, input [7:0] b, output [3:0] y);
	assign y = a + b;
endmodule`
	got := fires(t, "width-trunc", pos, true)
	if !strings.Contains(got[0].Message, "8 bits") {
		t.Fatalf("width not reported: %s", got[0].Message)
	}
	neg := `module m(input [3:0] a, input [3:0] b, output [3:0] y);
	assign y = a + b;
endmodule`
	fires(t, "width-trunc", neg, false)
	// sema's own checker covers ident-to-ident mismatches; L007 must
	// not double-report them.
	semaCovered := `module m(input [7:0] a, output [3:0] y);
	assign y = a;
endmodule`
	fires(t, "width-trunc", semaCovered, false)
	// A sized literal whose significant bits fit is fine...
	fires(t, "width-trunc", `module m(output [3:0] y);
	assign y = 8'h0F;
endmodule`, false)
	// ...but dropped significant bits are not.
	fires(t, "width-trunc", `module m(output [3:0] y);
	assign y = 8'hF0;
endmodule`, true)
	// Slice bounds fold with sema's folder, $clog2 included: the slice
	// is 8 bits, so the XOR is too.
	got = fires(t, "width-trunc", `module m #(parameter N = 16) (input [7:0] a, input [7:0] b, output [3:0] y);
	assign y = a[$clog2(N)+3:0] ^ b;
endmodule`, true)
	if want := "expression produces 8 bits but the assignment target is 4 bits wide; the upper 4 bits are silently dropped"; got[0].Message != want {
		t.Fatalf("message = %q, want %q", got[0].Message, want)
	}
	// With both sides shape-sized, sema's own check reports it instead.
	clogCovered := `module m #(parameter N = 16) (input [7:0] a, output [3:0] y);
	assign y = a[$clog2(N)+3:0];
endmodule`
	fires(t, "width-trunc", clogCovered, false)
	if _, _, diags := sema.ParseAndElaborate(clogCovered); len(diags) != 1 || diags[0].Category != diag.CatWidthMismatch {
		t.Fatalf("sema should report the width mismatch once: %s", diags.Summary())
	}
}

func TestReadBeforeWrite(t *testing.T) {
	pos := `module m(input en, input a, output reg y, output reg z);
	always @(*) begin
		z = y & a;
		y = en ? a : 1'b0;
	end
endmodule`
	got := fires(t, "read-before-write", pos, true)
	if got[0].Symbol != "y" {
		t.Fatalf("symbol = %q", got[0].Symbol)
	}
	neg := `module m(input en, input a, output reg y, output reg z);
	always @(*) begin
		y = en ? a : 1'b0;
		z = y & a;
	end
endmodule`
	fires(t, "read-before-write", neg, false)
	// Clocked blocks read pre-edge values by design.
	negClk := `module m(input clk, output reg [3:0] q);
	always @(posedge clk) q <= q + 1'b1;
endmodule`
	fires(t, "read-before-write", negClk, false)
}

func TestDeadSignal(t *testing.T) {
	pos := `module m(input a, output y);
	wire scratch;
	assign scratch = a;
	assign y = a;
endmodule`
	got := fires(t, "dead-signal", pos, true)
	if got[0].Symbol != "scratch" {
		t.Fatalf("symbol = %q", got[0].Symbol)
	}
	neg := `module m(input a, output y);
	wire scratch;
	assign scratch = a;
	assign y = scratch;
endmodule`
	fires(t, "dead-signal", neg, false)
	// Unread inputs are reported; read-by-sensitivity counts as a read.
	posInput := `module m(input a, input unused, output y);
	assign y = a;
endmodule`
	got = fires(t, "dead-signal", posInput, true)
	if got[0].Symbol != "unused" {
		t.Fatalf("symbol = %q", got[0].Symbol)
	}
	negClk := `module m(input clk, input d, output reg q);
	always @(posedge clk) q <= d;
endmodule`
	fires(t, "dead-signal", negClk, false)
}

func TestAliasHazard(t *testing.T) {
	// The two TestEngineRegressions constructs, verbatim shapes.
	aliasSliceStore := `module m(input clk, input [7:0] d, output reg [7:0] q);
	always @(posedge clk) begin
		q = d;
		q[4:1] = q;
	end
endmodule`
	got := fires(t, "alias-hazard", aliasSliceStore, true)
	if got[0].Symbol != "q" || got[0].Category != diag.CatAliasHazard {
		t.Fatalf("bad finding: %+v", got[0])
	}
	sharedLoopVar := `module m(input clk, input [7:0] d, output reg [7:0] q);
	integer i;
	always @(posedge clk) begin
		for (i = 0; i < 4; i = i + 1) q[i] <= d[i];
	end
	always @(posedge clk) begin
		for (i = 4; i < 8; i = i + 1) q[i] <= d[i];
	end
endmodule`
	got = fires(t, "alias-hazard", sharedLoopVar, true)
	if got[0].Symbol != "i" || len(got[0].Related) != 1 {
		t.Fatalf("bad finding: %+v", got[0])
	}
	// Dynamic self-slice (the dynamic_self_slice regression shape).
	dynSelf := `module m(input [7:0] d, input [2:0] pos, output reg [15:0] w);
	always @(*) begin
		w = {d, d};
		w[pos +: 8] = w[7:0];
	end
endmodule`
	fires(t, "alias-hazard", dynSelf, true)
	// Negatives: disjoint part-select stores and per-block loop vars.
	neg := `module m(input clk, input [7:0] d, output reg [7:0] q);
	always @(posedge clk) begin
		q[4:1] <= d[3:0];
	end
endmodule`
	fires(t, "alias-hazard", neg, false)
	negLoop := `module m(input clk, input [7:0] d, output reg [7:0] q);
	integer i;
	always @(posedge clk) begin
		for (i = 0; i < 8; i = i + 1) q[i] <= d[i];
	end
endmodule`
	fires(t, "alias-hazard", negLoop, false)
}

func TestOptionsSeverityAndSelection(t *testing.T) {
	src := `module m(input sel, input a, output reg y);
	always @(*) if (sel) y = a;
endmodule`
	all := Source(src, Options{})
	if len(all) == 0 {
		t.Fatal("expected findings with all rules enabled")
	}
	only := Source(src, Options{Rules: []string{"dead-signal"}})
	for _, d := range only {
		if d.Rule != "L009" {
			t.Fatalf("rule filter leaked: %+v", d)
		}
	}
	esc := Source(src, Options{
		Rules:    []string{"inferred-latch"},
		Severity: map[string]diag.Severity{"all": diag.SeverityError},
	})
	if len(esc) == 0 || esc[0].Severity != diag.SeverityError {
		t.Fatalf("severity override ignored: %+v", esc)
	}
	if _, err := ResolveRules([]string{"no-such-rule"}); err == nil {
		t.Fatal("unknown rule accepted")
	}
	if rs, err := ResolveRules(nil); err != nil || len(rs) != len(Rules()) {
		t.Fatalf("empty selection should mean all rules: %v %d", err, len(rs))
	}
}

func TestSourceToleratesBrokenInput(t *testing.T) {
	// Parse errors: no tree, no findings, no panic.
	if got := Source("module m(; endmodule", Options{}); len(got) != 0 {
		t.Fatalf("findings on unparsable source: %v", got)
	}
	// Elaboration errors (undeclared identifier) must not stop the
	// analyzer: this is the fixer's mid-repair case.
	src := `module m(input a, output reg y);
	always @(*) begin
		if (undeclared_enable) y = a;
	end
endmodule`
	got := Source(src, Options{Rules: []string{"inferred-latch"}})
	if len(got) == 0 {
		t.Fatal("analyzer silent on sema-error source")
	}
}

func TestRenderText(t *testing.T) {
	src := `module m(input sel, input a, output reg y);
	always @(*) if (sel) y = a;
endmodule`
	findings := Source(src, Options{Rules: []string{"inferred-latch"}})
	text := RenderText("main.v", findings)
	if !strings.Contains(text, "lint: main.v:2: warning [L001 inferred-latch]") {
		t.Fatalf("unexpected render:\n%s", text)
	}
	// Must never look like a compiler-log location line ("file:line:").
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if !strings.HasPrefix(line, "lint: ") {
			t.Fatalf("line without lint prefix: %q", line)
		}
	}
	if RenderText("main.v", nil) != "" {
		t.Fatal("empty findings should render empty")
	}
}

func TestRegistryStable(t *testing.T) {
	seenCode := map[string]bool{}
	seenName := map[string]bool{}
	for _, r := range Rules() {
		if seenCode[r.Code] || seenName[r.Name] {
			t.Fatalf("duplicate rule identity: %s %s", r.Code, r.Name)
		}
		seenCode[r.Code], seenName[r.Name] = true, true
		if r.Doc == "" {
			t.Fatalf("rule %s has no doc", r.Code)
		}
	}
	if len(Rules()) < 8 {
		t.Fatalf("fewer than 8 rules registered: %d", len(Rules()))
	}
}
