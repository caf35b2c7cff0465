package llm

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/diag"
)

func TestRepairSurplusEnd(t *testing.T) {
	assertRepairCompiles(t, `module m(input a, output reg y);
	always @(*) begin
		y = a;
	end
	end
endmodule`)
}

func TestRepairMissingEndInsertedBeforeEndmodule(t *testing.T) {
	assertRepairCompiles(t, `module m(input clk, input a, output reg y);
	always @(posedge clk) begin
		if (a)
			y <= 1;
endmodule`)
}

func TestRepairMalformedLiteral(t *testing.T) {
	assertRepairCompiles(t, `module m(output [7:0] y);
	assign y = 8'hgg;
endmodule`)
}

func TestRepairMalformedBinaryLiteral(t *testing.T) {
	assertRepairCompiles(t, `module m(output [3:0] y);
	assign y = 4'b1012;
endmodule`)
}

func TestRepairStrayEndmodule(t *testing.T) {
	assertRepairCompiles(t, `module m(input a, output y);
	assign y = a;
endmodule
endmodule`)
}

func TestRepairSliceOverflow(t *testing.T) {
	assertRepairCompiles(t, `module m(input [15:0] in, output [15:0] out);
	assign out = {in[7:0], in[16:9]};
endmodule`)
}

func TestRepairCStyleBraces(t *testing.T) {
	assertRepairCompiles(t, `module m(input a, input b, output reg y);
	always @(*) begin
		if (a) {
			y = b;
		}
		else
			y = 0;
	end
endmodule`)
}

func TestRepairGenericSyntaxFallsBackToSemicolon(t *testing.T) {
	// An iverilog-style bare "syntax error" hypothesis must still find
	// the missing semicolon through the generic strategy.
	code := `module m(input a, output y);
	assign y = a
endmodule`
	res := compiler.IVerilog{}.Compile("main.v", code)
	hyps := AnalyzeLog(res.Log)
	if len(hyps) == 0 {
		t.Fatalf("no hypotheses from: %s", res.Log)
	}
	out := applyStrategy(code, hyps[0])
	if !out.Applied {
		t.Fatalf("generic strategy did not apply: %s", out.Note)
	}
	if c := (compiler.IVerilog{}).Compile("main.v", out.Code); !c.Ok {
		t.Fatalf("generic repair failed:\n%s\n%s", out.Code, c.Log)
	}
}

func TestRepairFromIVerilogLValueLog(t *testing.T) {
	// iverilog names the symbol in plain words ("out is not a valid
	// l-value"); the extraction path differs from Quartus's quotes.
	code := `module top_module(input a, output out);
	always @(*) out = a;
endmodule`
	res := compiler.IVerilog{}.Compile("main.v", code)
	hyps := AnalyzeLog(res.Log)
	if len(hyps) == 0 || hyps[0].Symbol != "out" {
		t.Fatalf("symbol extraction failed: %+v from %q", hyps, res.Log)
	}
	out := applyStrategy(code, hyps[0])
	if !out.Applied {
		t.Fatalf("strategy failed: %s", out.Note)
	}
	if c := (compiler.IVerilog{}).Compile("main.v", out.Code); !c.Ok {
		t.Fatalf("repair failed:\n%s", out.Code)
	}
}

func TestRepairUndeclaredFallbackDeclares(t *testing.T) {
	// No similar name, not a control name, not in a sensitivity list:
	// the fallback declares an internal net.
	code := `module m(input a, output y);
	assign y = a & scratchxyz;
endmodule`
	h := quartusHyp(t, code)
	out := applyStrategy(code, h)
	if !out.Applied {
		t.Fatalf("fallback did not apply: %s", out.Note)
	}
	if !strings.Contains(out.Code, "wire scratchxyz;") {
		t.Fatalf("expected an internal declaration:\n%s", out.Code)
	}
}

func TestBotchNeverTouchesHeader(t *testing.T) {
	code := `module m(
	input a,
	input b,
	output y
);
	assign y = a & b;
	wire t1;
	wire t2;
endmodule`
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		out, _ := botch(code, rng)
		for _, port := range []string{"input a", "input b", "output y"} {
			if !strings.Contains(out, port) {
				t.Fatalf("botch damaged the port list (lost %q):\n%s", port, out)
			}
		}
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "abc", 0},
		{"data", "data_r", 2},
		{"clk", "clock", 2},
		{"out", "in", 3},
	}
	for _, c := range cases {
		if got := editDistance(c.a, c.b); got != c.want {
			t.Errorf("editDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDeclaredNames(t *testing.T) {
	code := `module m(
	input clk,
	input [7:0] data_in,
	output reg [7:0] q
);
	wire [3:0] tmp;
	integer i;
endmodule`
	names := declaredNames(splitLines(code))
	want := map[string]bool{"clk": true, "data_in": true, "q": true, "tmp": true, "i": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Fatalf("missing declared names: %v (got %v)", want, names)
	}
}

func TestProposeLogicEditProducesCompilingVariant(t *testing.T) {
	src := `module m(input clk, input reset, output reg [7:0] q);
	always @(posedge clk) begin
		if (reset)
			q <= 0;
		else
			q <= q + 1;
	end
endmodule`
	rng := rand.New(rand.NewSource(4))
	changed := 0
	for i := 0; i < 30; i++ {
		out := ProposeLogicEdit(src, rng)
		if out != src {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("ProposeLogicEdit never produced an edit")
	}
}

func TestSampleKindStrings(t *testing.T) {
	if KindPass.String() != "pass" || KindSyntaxErr.String() != "syntax-error" ||
		KindSimErr.String() != "simulation-error" {
		t.Fatal("kind strings wrong")
	}
}

func TestRatesForCoversAllSuites(t *testing.T) {
	for _, suite := range []string{"machine", "human", "rtllm", "unknown"} {
		for _, diff := range []string{"easy", "hard"} {
			r := RatesFor(suite, diff)
			if r.Pass < 0 || r.Pass > 1 || r.SyntaxGivenFail < 0 || r.SyntaxGivenFail > 1 {
				t.Errorf("RatesFor(%s,%s) out of range: %+v", suite, diff, r)
			}
		}
	}
	if RatesFor("human", "easy").Pass <= RatesFor("human", "hard").Pass {
		t.Error("easy must pass more often than hard")
	}
}

func TestThoughtCoversCategories(t *testing.T) {
	cats := []diag.Category{
		diag.CatUndeclaredIdent, diag.CatInvalidLValue, diag.CatIndexOutOfRange,
		diag.CatCStyleSyntax, diag.CatUnmatchedBeginEnd, diag.CatMissingSemicolon,
		diag.CatDuplicateDecl,
	}
	seen := map[string]bool{}
	for _, c := range cats {
		got := Thought("log", []Hypothesis{{Category: c, Symbol: "x", Line: 3, Confidence: 0.9}})
		if got == "" {
			t.Fatalf("empty thought for %s", c)
		}
		seen[got] = true
	}
	if len(seen) < 5 {
		t.Errorf("thoughts not differentiated: %d distinct for %d categories", len(seen), len(cats))
	}
}

func TestRepairDeterministicAcrossStrategies(t *testing.T) {
	// applyStrategy is pure: same inputs, same outputs.
	code := `module m(input a, output out);
	always @(*) out = a;
endmodule`
	h := quartusHyp(t, code)
	a := applyStrategy(code, h)
	b := applyStrategy(code, h)
	if a.Code != b.Code || a.Applied != b.Applied {
		t.Fatal("applyStrategy not deterministic")
	}
}
