package llm

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/diag"
	"repro/internal/rag"
)

func TestPersonaByName(t *testing.T) {
	for _, name := range []string{"gpt-3.5", "gpt-3.5-turbo", "GPT-4", "gpt4"} {
		if _, ok := PersonaByName(name); !ok {
			t.Errorf("PersonaByName(%q) failed", name)
		}
	}
	if _, ok := PersonaByName("claude"); ok {
		t.Error("unknown persona resolved")
	}
}

func TestPersonaOrdering(t *testing.T) {
	weak, strong := GPT35(), GPT4()
	if weak.DefaultCompetence >= strong.DefaultCompetence {
		t.Error("gpt-4 must have higher base competence")
	}
	if weak.BlindAcuity >= strong.BlindAcuity {
		t.Error("gpt-4 must have higher blind acuity")
	}
	if weak.HallucinationRate <= strong.HallucinationRate {
		t.Error("gpt-3.5 must hallucinate more")
	}
}

// ---------- log analysis ----------

func TestAnalyzeQuartusLog(t *testing.T) {
	log := `Error (10161): Verilog HDL error at top.sv(5): object "clk" is not declared. Verify the object name is correct. File: /tmp/top.sv Line: 5`
	hyps := AnalyzeLog(log)
	if len(hyps) != 1 {
		t.Fatalf("got %d hypotheses", len(hyps))
	}
	h := hyps[0]
	if h.Category != diag.CatUndeclaredIdent || h.Line != 5 || h.Symbol != "clk" {
		t.Fatalf("hypothesis = %+v", h)
	}
	if h.Confidence < 0.9 {
		t.Errorf("quartus confidence %.2f too low", h.Confidence)
	}
}

func TestAnalyzeIVerilogLog(t *testing.T) {
	log := "top.sv:5: error: Unable to bind wire/reg/memory `clk' in `top_module'\n" +
		"top.sv:5: error: Failed to evaluate event expression 'posedge clk'.\n" +
		"2 error(s) during elaboration.\n"
	hyps := AnalyzeLog(log)
	if len(hyps) == 0 {
		t.Fatal("no hypotheses")
	}
	if hyps[0].Category != diag.CatUndeclaredIdent || hyps[0].Symbol != "clk" {
		t.Fatalf("first hypothesis = %+v", hyps[0])
	}
}

func TestAnalyzeGiveUpLogIsNearlyUseless(t *testing.T) {
	log := "top.sv:3: syntax error\ntop.sv:5: syntax error\nI give up.\n"
	hyps := AnalyzeLog(log)
	if len(hyps) > 1 {
		t.Fatalf("give-up log should yield at most one hypothesis, got %d", len(hyps))
	}
	if len(hyps) == 1 && hyps[0].Confidence > 0.3 {
		t.Errorf("give-up confidence %.2f too high", hyps[0].Confidence)
	}
}

func TestAnalyzeSimpleLogYieldsNothing(t *testing.T) {
	if hyps := AnalyzeLog("Correct the syntax error in the code."); len(hyps) != 0 {
		t.Fatalf("Simple feedback must carry no hypotheses, got %v", hyps)
	}
}

func TestQuartusCategoryInversionComplete(t *testing.T) {
	// Every category the Quartus persona can emit must invert back.
	seen := map[diag.Category]bool{}
	for _, c := range quartusCodeToCategory {
		seen[c] = true
	}
	for _, c := range []diag.Category{
		diag.CatUndeclaredIdent, diag.CatIndexOutOfRange, diag.CatInvalidLValue,
		diag.CatAssignToReg, diag.CatCStyleSyntax, diag.CatDuplicateDecl,
	} {
		if !seen[c] {
			t.Errorf("category %s not invertible from quartus codes", c)
		}
	}
}

// ---------- blind inspection ----------

func TestBlindSpotsCStyle(t *testing.T) {
	code := "module m(input [7:0] a, output reg [7:0] y);\nalways @(*) begin\nfor (int i = 0; i < 8; i++)\ny[i] = a[i];\nend\nendmodule"
	found := false
	for _, h := range BlindHypotheses(code) {
		if h.Category == diag.CatCStyleSyntax {
			found = true
		}
	}
	if !found {
		t.Fatal("blind inspection must spot i++")
	}
}

func TestBlindSpotsMissingEndmodule(t *testing.T) {
	code := "module m(input a, output y);\nassign y = a;\n"
	found := false
	for _, h := range BlindHypotheses(code) {
		if h.Category == diag.CatMissingEndmodule {
			found = true
		}
	}
	if !found {
		t.Fatal("blind inspection must spot the missing endmodule")
	}
}

func TestBlindSpotsUndeclaredClock(t *testing.T) {
	code := "module m(input d, output reg q);\nalways @(posedge clk) q <= d;\nendmodule"
	found := false
	for _, h := range BlindHypotheses(code) {
		if h.Category == diag.CatUndeclaredIdent && h.Symbol == "clk" {
			found = true
		}
	}
	if !found {
		t.Fatal("blind inspection must spot posedge of an undeclared signal")
	}
}

func TestBlindQuietOnCleanCode(t *testing.T) {
	code := `module m(input clk, input [7:0] d, output reg [7:0] q);
	always @(posedge clk)
		q <= d;
endmodule`
	for _, h := range BlindHypotheses(code) {
		if h.Confidence > 0.5 {
			t.Errorf("high-confidence false positive on clean code: %+v", h)
		}
	}
}

// ---------- repair strategies ----------

func quartusHyp(t *testing.T, code string) Hypothesis {
	t.Helper()
	res := compiler.Quartus{}.Compile("main.v", code)
	if res.Ok {
		t.Fatal("fixture compiles")
	}
	hyps := AnalyzeLog(res.Log)
	if len(hyps) == 0 {
		t.Fatalf("no hypotheses from log: %s", res.Log)
	}
	return hyps[0]
}

// assertRepairCompiles applies the category strategy and requires the
// result to compile.
func assertRepairCompiles(t *testing.T, code string) {
	t.Helper()
	h := quartusHyp(t, code)
	out := applyStrategy(code, h)
	if !out.Applied {
		t.Fatalf("strategy did not apply: %s\nhypothesis: %+v", out.Note, h)
	}
	// Iterate: fixing one error may reveal another of the same kind.
	cur := out.Code
	for i := 0; i < 5; i++ {
		res := compiler.Quartus{}.Compile("main.v", cur)
		if res.Ok {
			return
		}
		hyps := AnalyzeLog(res.Log)
		if len(hyps) == 0 {
			break
		}
		next := applyStrategy(cur, hyps[0])
		if !next.Applied || next.Code == cur {
			break
		}
		cur = next.Code
	}
	res := compiler.Quartus{}.Compile("main.v", cur)
	if !res.Ok {
		t.Fatalf("repaired code still fails:\n%s\nlog: %s", cur, res.Log)
	}
}

func TestRepairUndeclaredClockPort(t *testing.T) {
	assertRepairCompiles(t, `module top_module (
	input [7:0] d,
	output reg [7:0] q
);
	always @(posedge clk)
		q <= d;
endmodule`)
}

func TestRepairMisspelledIdent(t *testing.T) {
	assertRepairCompiles(t, `module m(input [7:0] data, output [7:0] y);
	assign y = ~data_r;
endmodule`)
}

func TestRepairIndexOverflow(t *testing.T) {
	assertRepairCompiles(t, `module m(input [7:0] in, output [7:0] out);
	assign {out[0],out[1],out[2],out[3],out[4],out[5],out[6],out[8]} = in;
endmodule`)
}

func TestRepairIndexArithmetic(t *testing.T) {
	// The paper's Fig. 6 shape: (0-1)*16 + ... folds negative.
	assertRepairCompiles(t, `module m(input [255:0] q, output y);
	assign y = q[(0-1)*16 + 15];
endmodule`)
}

func TestRepairInvalidLValue(t *testing.T) {
	assertRepairCompiles(t, `module m(input a, output out);
	always @(*) out = a;
endmodule`)
}

func TestRepairAssignToReg(t *testing.T) {
	assertRepairCompiles(t, `module m(input a, output reg out);
	assign out = a;
endmodule`)
}

func TestRepairMissingSemicolonParenEnd(t *testing.T) {
	// The regression that once pinned the fix rate: an expression ending
	// in ')' still needs its semicolon.
	assertRepairCompiles(t, `module m(input [15:0] bin, output [15:0] gray);
	assign gray = bin ^ (bin >> 1)
endmodule`)
}

func TestRepairMissingEndmodule(t *testing.T) {
	assertRepairCompiles(t, `module m(input a, output y);
	assign y = a;`)
}

func TestRepairCStyle(t *testing.T) {
	assertRepairCompiles(t, `module m(input [7:0] in, output reg [7:0] out);
	integer i;
	always @(*) begin
		for (i = 0; i < 8; i++)
			out[i] = in[7 - i];
	end
endmodule`)
}

func TestRepairMisplacedDirective(t *testing.T) {
	assertRepairCompiles(t, "module m(input a, output y);\n`timescale 1ns/1ps\nassign y = a;\nendmodule")
}

func TestRepairDuplicateDecl(t *testing.T) {
	assertRepairCompiles(t, `module m(input a, output y);
	wire t1;
	wire t1;
	assign y = a;
endmodule`)
}

func TestRepairSensitivity(t *testing.T) {
	assertRepairCompiles(t, `module m(input clk, input d, output reg q);
	always
		q <= d;
endmodule`)
}

func TestRepairPortListDanglingComma(t *testing.T) {
	assertRepairCompiles(t, `module m(
	input a,
	output y,
);
	assign y = a;
endmodule`)
}

// ---------- the full model ----------

func TestModelRepairDeterministicPerSeed(t *testing.T) {
	code := "module m(input a, output out);\nalways @(*) out = a;\nendmodule"
	res := compiler.Quartus{}.Compile("main.v", code)
	req := RepairRequest{Code: code, Feedback: res.Log, SampleSeed: 5}
	a := NewModel(GPT35(), 99).Repair(req)
	b := NewModel(GPT35(), 99).Repair(req)
	if a.Code != b.Code {
		t.Fatal("same seed must reproduce the same repair")
	}
}

func TestModelAptitudePersistence(t *testing.T) {
	m := NewModel(GPT35(), 1)
	u1 := m.aptitude(42, diag.CatIndexOutOfRange)
	u2 := m.aptitude(42, diag.CatIndexOutOfRange)
	if u1 != u2 {
		t.Fatal("aptitude must be deterministic")
	}
	if u1 == m.aptitude(43, diag.CatIndexOutOfRange) {
		t.Fatal("different samples should (almost surely) differ")
	}
	if u1 < 0 || u1 >= 1 {
		t.Fatalf("aptitude %f out of range", u1)
	}
}

func TestGuidanceImprovesFixProbability(t *testing.T) {
	// Statistical check: across many sample seeds, repairs with matching
	// guidance succeed at least as often as without.
	code := `module m(input [255:0] q, output y);
	assign y = q[(0-1)*16 + 15];
endmodule`
	res := compiler.Quartus{}.Compile("main.v", code)
	guidance := rag.ExactTag{}.Retrieve(rag.QuartusDB(), res.Log, 4)
	if len(guidance) == 0 {
		t.Fatal("no guidance retrieved for the index error")
	}
	without, with := 0, 0
	for seed := int64(0); seed < 120; seed++ {
		m1 := NewModel(GPT35(), seed)
		r1 := m1.Repair(RepairRequest{Code: code, Feedback: res.Log, SampleSeed: seed})
		if c := (compiler.Quartus{}).Compile("main.v", r1.Code); c.Ok {
			without++
		}
		m2 := NewModel(GPT35(), seed)
		r2 := m2.Repair(RepairRequest{Code: code, Feedback: res.Log, Guidance: guidance, SampleSeed: seed})
		if c := (compiler.Quartus{}).Compile("main.v", r2.Code); c.Ok {
			with++
		}
	}
	if with <= without {
		t.Fatalf("guidance did not help: %d/120 vs %d/120 without", with, without)
	}
}

func TestThoughtRendering(t *testing.T) {
	hyps := []Hypothesis{{Category: diag.CatUndeclaredIdent, Symbol: "clk", Line: 5, Confidence: 0.9}}
	got := Thought("some log", hyps)
	if !strings.Contains(got, "clk") {
		t.Fatalf("thought should mention the symbol: %q", got)
	}
	if got := Thought("Correct the syntax error in the code.", nil); !strings.Contains(got, "inspect") {
		t.Fatalf("no-feedback thought wrong: %q", got)
	}
}

// ---------- generation ----------

func TestGenerateKindsRoughlyMatchRates(t *testing.T) {
	ref := `module top_module(input [7:0] a, input [7:0] b, output [7:0] y);
	assign y = a ^ b;
endmodule
`
	rates := GenRates{Pass: 0.5, SyntaxGivenFail: 0.6, LogicOKGivenSyntax: 0.5, TwoErrors: 0.2}
	rng := rand.New(rand.NewSource(8))
	counts := map[SampleKind]int{}
	n := 2000
	for i := 0; i < n; i++ {
		s := Generate(ref, rates, rng)
		counts[s.Kind]++
	}
	passShare := float64(counts[KindPass]) / float64(n)
	if passShare < 0.45 || passShare > 0.55 {
		t.Errorf("pass share %.2f, want ~0.5", passShare)
	}
	synShare := float64(counts[KindSyntaxErr]) / float64(n)
	if synShare < 0.25 || synShare > 0.35 {
		t.Errorf("syntax share %.2f, want ~0.3", synShare)
	}
}

func TestGenerateSyntaxSamplesFailCompilation(t *testing.T) {
	ref := `module top_module(input clk, input reset, output reg [7:0] q);
	always @(posedge clk) begin
		if (reset)
			q <= 0;
		else
			q <= q + 1;
	end
endmodule
`
	rates := GenRates{Pass: 0, SyntaxGivenFail: 1, LogicOKGivenSyntax: 1, TwoErrors: 0}
	rng := rand.New(rand.NewSource(9))
	failing := 0
	for i := 0; i < 100; i++ {
		s := Generate(ref, rates, rng)
		if _, design, _ := compiler.Frontend(s.Code); design == nil {
			failing++
		}
	}
	// misplaced-timescale injections are auto-repaired by the rule-based
	// fixer at evaluation time, not here, so raw failure should be high.
	if failing < 90 {
		t.Errorf("only %d/100 syntax samples fail compilation", failing)
	}
}

func TestSemanticMutateChangesBehaviourNotCompilability(t *testing.T) {
	ref := `module top_module(input clk, input reset, output reg [7:0] q);
	always @(posedge clk) begin
		if (reset)
			q <= 0;
		else
			q <= q + 1;
	end
endmodule
`
	rng := rand.New(rand.NewSource(10))
	changed := 0
	for i := 0; i < 50; i++ {
		out := mutants.semanticMutate(ref, rng)
		if _, design, _ := compiler.Frontend(out); design == nil {
			t.Fatalf("semantic mutation broke compilation:\n%s", out)
		}
		if out != ref {
			changed++
		}
	}
	if changed < 45 {
		t.Errorf("semantic mutation no-oped %d/50 times", 50-changed)
	}
}

func TestSkewRatesPreservesBounds(t *testing.T) {
	r := GenRates{Pass: 0.5}
	for _, id := range []string{"a", "b", "c", "counter_up_w8", "mux2_w100"} {
		s := SkewRates(r, id)
		if s.Pass < 0 || s.Pass > 1 {
			t.Fatalf("skewed pass %.3f out of bounds for %s", s.Pass, id)
		}
		again := SkewRates(r, id)
		if s.Pass != again.Pass {
			t.Fatal("skew must be deterministic per problem")
		}
	}
}
