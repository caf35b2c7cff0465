package agent

import (
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/llm"
	"repro/internal/rag"
)

const brokenClk = `module top_module (
	input [7:0] in,
	output reg [7:0] out
);
	always @(posedge clk) begin
		out <= in;
	end
endmodule
`

const cleanSrc = `module m(input a, output y);
	assign y = ~a;
endmodule
`

func quartusCfg(seed int64, ragOn bool) Config {
	cfg := Config{
		Compiler:   compiler.Quartus{},
		Model:      llm.NewModel(llm.GPT35(), seed),
		Filename:   "main.v",
		SampleSeed: seed,
	}
	if ragOn {
		cfg.DB = rag.QuartusDB()
	}
	return cfg
}

func TestReActFixesAcrossSeeds(t *testing.T) {
	fixed := 0
	for seed := int64(0); seed < 10; seed++ {
		tr := RunReAct(quartusCfg(seed, true), brokenClk)
		if tr.Success {
			fixed++
			if res := (compiler.Quartus{}).Compile("x.v", tr.FinalCode); !res.Ok {
				t.Fatalf("success claimed but final code fails:\n%s", tr.FinalCode)
			}
		}
	}
	if fixed < 8 {
		t.Fatalf("ReAct+RAG fixed only %d/10", fixed)
	}
}

func TestReActCleanCodeZeroIterations(t *testing.T) {
	tr := RunReAct(quartusCfg(1, false), cleanSrc)
	if !tr.Success || tr.Iterations != 0 {
		t.Fatalf("success=%v iterations=%d", tr.Success, tr.Iterations)
	}
}

func TestReActRespectsIterationBudget(t *testing.T) {
	cfg := quartusCfg(3, false)
	cfg.MaxIterations = 2
	// hopeless input: not Verilog at all
	tr := RunReAct(cfg, "module m(input a, output y);\nthis is not verilog at all\nqqq www eee\nendmodule")
	if tr.Iterations > 2 {
		t.Fatalf("budget exceeded: %d iterations", tr.Iterations)
	}
}

func TestReActTranscriptStructure(t *testing.T) {
	tr := RunReAct(quartusCfg(5, true), brokenClk)
	var thoughts, compiles, rags int
	for _, s := range tr.Steps {
		switch {
		case s.Kind == StepThought:
			thoughts++
		case s.Kind == StepAction && s.Tool == "Compiler":
			compiles++
		case s.Kind == StepAction && s.Tool == "RAG":
			rags++
		}
	}
	if thoughts == 0 {
		t.Error("no Thought steps recorded")
	}
	if compiles < 2 {
		t.Errorf("expected at least initial+verify compiles, got %d", compiles)
	}
	if rags == 0 {
		t.Error("RAG enabled but never consulted")
	}
	rendered := tr.Render()
	for _, want := range []string{"Thought 1:", "Action", "Observation", "Result:"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestOneShotExactlyOneRevision(t *testing.T) {
	tr := RunOneShot(quartusCfg(2, false), brokenClk)
	if tr.Iterations != 1 {
		t.Fatalf("one-shot iterations = %d", tr.Iterations)
	}
	// No Thought steps in one-shot: the baseline excludes reasoning.
	for _, s := range tr.Steps {
		if s.Kind == StepThought {
			t.Fatal("one-shot must not produce Thought steps")
		}
	}
}

func TestOneShotCleanCode(t *testing.T) {
	tr := RunOneShot(quartusCfg(2, false), cleanSrc)
	if !tr.Success || tr.Iterations != 0 {
		t.Fatalf("success=%v iterations=%d", tr.Success, tr.Iterations)
	}
}

func TestSimplePersonaNoRAGStep(t *testing.T) {
	cfg := Config{
		Compiler:   compiler.Simple{},
		Model:      llm.NewModel(llm.GPT35(), 4),
		DB:         rag.QuartusDB(), // present but unusable without a log
		Filename:   "main.v",
		SampleSeed: 4,
	}
	tr := RunReAct(cfg, brokenClk)
	for _, s := range tr.Steps {
		if s.Kind == StepAction && s.Tool == "RAG" {
			t.Fatal("RAG must not run with the Simple persona (no log to retrieve from)")
		}
	}
}

func TestFixerRulesRecordedInTranscript(t *testing.T) {
	wrapped := "```verilog\n" + cleanSrc + "```"
	tr := RunReAct(quartusCfg(6, false), wrapped)
	if !tr.Success {
		t.Fatal("markdown-wrapped clean code must pass after the pre-fixer")
	}
	if len(tr.FixerRules) == 0 {
		t.Fatal("fixer rules should be recorded")
	}
}

func TestReActIterationsCounted(t *testing.T) {
	tr := RunReAct(quartusCfg(7, true), brokenClk)
	if tr.Success && tr.Iterations < 1 {
		t.Fatal("a fixed broken sample needs at least one revision")
	}
}

func TestDeterministicTranscripts(t *testing.T) {
	a := RunReAct(quartusCfg(9, true), brokenClk)
	b := RunReAct(quartusCfg(9, true), brokenClk)
	if a.Render() != b.Render() {
		t.Fatal("same seed must reproduce the same transcript")
	}
}

// splitFirstLogLine is firstLogLine's former strings.Split form, the
// reference for TestFirstLogLineMatchesSplit.
func splitFirstLogLine(log string) string {
	for _, line := range strings.Split(log, "\n") {
		if strings.TrimSpace(line) != "" {
			return strings.TrimSpace(line)
		}
	}
	return log
}

// TestFirstLogLineMatchesSplit: the strings.Cut walk returns what the
// Split form did, including the whole log when no line has text.
func TestFirstLogLineMatchesSplit(t *testing.T) {
	cases := []string{
		"",
		"\n",
		" \t\n  \n\t",
		"\r\n\r\n",
		"Error (10161): object \"clk\" is not declared\r\nError: stop\r\n",
		"\n\n  \n  Error: first  \nError: second\n",
		"main.v:6: error: Unable to bind wire/reg/memory `clk'",
		"   only line, no newline   ",
		"\n\n\nlast line only",
		"\v\f\n x",
		"a\n\nb",
	}
	for _, log := range cases {
		if got, want := firstLogLine(log), splitFirstLogLine(log); got != want {
			t.Errorf("firstLogLine(%q) = %q, want %q", log, got, want)
		}
	}
}
