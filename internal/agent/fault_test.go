package agent

import (
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/fault"
	"repro/internal/llm"
)

// TestAnalyzerPanicIsolated: a panicking analyzer is dropped, never
// fatal — the run completes with zero lint findings.
func TestAnalyzerPanicIsolated(t *testing.T) {
	fault.Install(fault.MustParse("analyze.panic:1", 1))
	defer fault.Uninstall()

	tr := RunReAct(quartusCfg(3, true), brokenClk)
	if tr.LintFindings != 0 {
		t.Fatalf("LintFindings = %d with the analyzer panicking", tr.LintFindings)
	}
	if tr.FinalCode == "" {
		t.Fatal("no final code")
	}
}

// TestEmptyProfileTranscriptsIdentical: installing an EMPTY fault
// registry must not perturb transcripts — the acceptance bar for
// byte-identical benchmark output under an empty -fault-profile.
func TestEmptyProfileTranscriptsIdentical(t *testing.T) {
	base := RunReAct(quartusCfg(7, true), brokenClk)
	fault.Install(fault.MustParse("", 7))
	t.Cleanup(fault.Uninstall)
	injected := RunReAct(quartusCfg(7, true), brokenClk)
	fault.Uninstall()
	if base.Render() != injected.Render() {
		t.Fatal("empty fault profile changed the transcript")
	}
}

// TestSharedModelParallelAgentRuns drives parallel agent runs through
// ONE shared llm.Model under -race: the model's mutex must make this
// memory-safe even though per-run models remain the determinism-
// preserving default.
func TestSharedModelParallelAgentRuns(t *testing.T) {
	shared := llm.NewModel(llm.GPT35(), 99)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfg := Config{
				Compiler:   compiler.Quartus{},
				Model:      shared,
				Filename:   "main.v",
				SampleSeed: int64(g),
			}
			tr := RunReAct(cfg, brokenClk)
			if tr.FinalCode == "" {
				t.Error("empty final code")
			}
		}(g)
	}
	wg.Wait()
}
