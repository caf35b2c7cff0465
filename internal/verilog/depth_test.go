package verilog_test

import (
	"strings"
	"testing"

	"repro/internal/curate"
	"repro/internal/dataset"
	"repro/internal/diag"
	"repro/internal/verilog"
)

// TestNestingBoundCoversCorpus: every benchmark reference and every
// curated entry nests well under verilog.MaxNestingDepth, so the bound
// changes no parse of the corpus. The peak is the figure DESIGN §13
// states.
func TestNestingBoundCoversCorpus(t *testing.T) {
	peak, where := 0, ""
	note := func(name, src string) {
		if d := verilog.NestingPeak(src); d > peak {
			peak, where = d, name
		}
	}
	for _, s := range []dataset.Suite{dataset.SuiteHuman, dataset.SuiteMachine, dataset.SuiteRTLLM} {
		for _, p := range dataset.Problems(s) {
			note(string(s)+"/"+p.ID, p.RefSource)
		}
	}
	entries, _ := curate.Build(curate.Options{Seed: 2024})
	if len(entries) != curate.TargetSize {
		t.Fatalf("curated %d entries", len(entries))
	}
	for _, e := range entries {
		note("curated/"+e.ProblemID, e.Code)
	}
	t.Logf("deepest nesting: %d levels (%s)", peak, where)
	if peak != 10 {
		t.Errorf("deepest nesting moved to %d (%s); DESIGN §13 and the MaxNestingDepth comment state 10", peak, where)
	}
	if 16*peak > verilog.MaxNestingDepth {
		t.Errorf("MaxNestingDepth %d leaves under 16x headroom over the corpus's %d levels", verilog.MaxNestingDepth, peak)
	}
}

// TestNestingDepthLimit: one level under the bound parses clean, one
// more is a single resource-limit error, for every kind of nesting,
// however deep the input goes on and whatever errors came before.
func TestNestingDepthLimit(t *testing.T) {
	const max = verilog.MaxNestingDepth
	// Each shape nests n levels plus its frame: the assign's right-hand
	// side (1), the l-value's statement (1), or the outer statement and
	// the innermost assignment's right-hand side (2).
	shapes := []struct {
		name  string
		frame int
		src   func(n int) string
	}{
		{"parens", 1, func(n int) string {
			return "module m(input a, output y); assign y = " + strings.Repeat("(", n) + "a" + strings.Repeat(")", n) + "; endmodule"
		}},
		{"unary", 1, func(n int) string {
			return "module m(input a, output y); assign y = " + strings.Repeat("~", n) + "a; endmodule"
		}},
		{"concat", 1, func(n int) string {
			return "module m(input a, output y); assign y = " + strings.Repeat("{", n) + "a" + strings.Repeat("}", n) + "; endmodule"
		}},
		{"chain", 1, func(n int) string {
			return "module m(input a, output y); assign y = a" + strings.Repeat(" + a", n) + "; endmodule"
		}},
		{"ternary", 1, func(n int) string {
			return "module m(input a, output y); assign y = " + strings.Repeat("a ? a : ", n) + "a; endmodule"
		}},
		{"blocks", 2, func(n int) string {
			return "module m(input a, output reg y); always @(*) " + strings.Repeat("begin ", n) + "y = a;" + strings.Repeat(" end", n) + " endmodule"
		}},
		{"ifs", 2, func(n int) string {
			return "module m(input a, output reg y); always @(*) " + strings.Repeat("if (a) ", n) + "y = a; endmodule"
		}},
		{"lvalue", 1, func(n int) string {
			return "module m(input a, output reg y); always @(*) " + strings.Repeat("{", n) + "y" + strings.Repeat("}", n) + " = a; endmodule"
		}},
	}
	for _, sh := range shapes {
		ok := max - sh.frame // the deepest legal nesting of this shape
		if _, diags := verilog.Parse(sh.src(ok)); diags.HasErrors() {
			t.Errorf("%s at %d levels: %s", sh.name, ok, diags.Summary())
		}
		for _, n := range []int{ok + 1, 50000} {
			_, diags := verilog.Parse(sh.src(n))
			if len(diags) != 1 || diags[0].Category != diag.CatResourceLimit || diags[0].Severity != diag.SeverityError {
				t.Errorf("%s at %d levels: want one resource-limit error, got %d: %s", sh.name, n, len(diags), diags.Summary())
			}
		}
	}
	// Ten earlier errors fill maxParseErrors; the limit is still reported.
	src := strings.Repeat("module m; x ; endmodule\n", 12) + shapes[0].src(max)
	_, diags := verilog.Parse(src)
	if got := diags.Errors(); len(got) == 0 || got[len(got)-1].Category != diag.CatResourceLimit {
		t.Errorf("resource-limit error dropped after earlier errors: %s", diags.Summary())
	}
}
