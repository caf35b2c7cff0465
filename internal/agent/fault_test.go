package agent

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/fault"
	"repro/internal/llm"
)

// TestLLMTransientRetryRecovers: two transient backend failures are
// absorbed by the retry policy; the run completes normally with the
// retries on the transcript and no abort.
func TestLLMTransientRetryRecovers(t *testing.T) {
	r := fault.MustParse("llm.transient:1", 1)
	if err := r.SetLimit(fault.LLMTransient, 2); err != nil {
		t.Fatal(err)
	}
	fault.Install(r)
	defer fault.Uninstall()

	tr := RunReAct(quartusCfg(3, true), brokenClk)
	if tr.Aborted != "" {
		t.Fatalf("run aborted despite retry headroom: %s", tr.Aborted)
	}
	if tr.LLMRetries != 2 {
		t.Fatalf("LLMRetries = %d, want 2", tr.LLMRetries)
	}
	if tr.FinalCode == "" {
		t.Fatal("no final code")
	}
}

// TestLLMPersistentAborts: a backend that fails every attempt aborts
// the run with a typed, injected error on the transcript; the last good
// candidate is still returned.
func TestLLMPersistentAborts(t *testing.T) {
	fault.Install(fault.MustParse("llm.persistent:1", 1))
	defer fault.Uninstall()

	for _, run := range []func(Config, string) *Transcript{RunOneShot, RunReAct} {
		tr := run(quartusCfg(3, false), brokenClk)
		if tr.Aborted == "" || tr.Success {
			t.Fatalf("aborted=%q success=%v, want abort", tr.Aborted, tr.Success)
		}
		if !strings.Contains(tr.Aborted, "llm backend unavailable") {
			t.Fatalf("abort reason = %q", tr.Aborted)
		}
		if tr.FinalCode == "" {
			t.Fatal("aborted run must still carry the last candidate")
		}
		last := tr.Steps[len(tr.Steps)-1]
		if last.Tool != "Finish" || !strings.HasPrefix(last.Content, "aborted:") {
			t.Fatalf("last step = %+v", last)
		}
	}
}

// TestRetryBudgetBoundsAbortLatency: with transient faults firing every
// time, the per-run budget (8) stops retries long before
// iterations×MaxAttempts could.
func TestRetryBudgetBoundsAbortLatency(t *testing.T) {
	fault.Install(fault.MustParse("llm.transient:1", 2))
	defer fault.Uninstall()

	tr := RunReAct(quartusCfg(3, false), brokenClk)
	if tr.Aborted == "" {
		t.Fatal("run should abort once the budget is gone")
	}
	if tr.LLMRetries > 8 {
		t.Fatalf("LLMRetries = %d, budget is 8", tr.LLMRetries)
	}
}

// TestLLMGarbageIterates: garbled backend output does not wedge or
// abort the loop — the next compile fails and iteration continues.
func TestLLMGarbageIterates(t *testing.T) {
	r := fault.MustParse("llm.garbage:1", 1)
	if err := r.SetLimit(fault.LLMGarbage, 1); err != nil {
		t.Fatal(err)
	}
	fault.Install(r)
	defer fault.Uninstall()

	tr := RunReAct(quartusCfg(3, true), brokenClk)
	if tr.Aborted != "" {
		t.Fatalf("garbage output aborted the run: %s", tr.Aborted)
	}
	found := false
	for _, s := range tr.Steps {
		if strings.Contains(s.Content, "returned garbled output") {
			found = true
		}
	}
	if !found {
		t.Fatal("garbled revision not visible in the transcript")
	}
	if strings.Contains(tr.FinalCode, "<<garbled") && tr.Success {
		t.Fatal("success claimed on garbled final code")
	}
}

// TestAnalyzerPanicIsolated: a panicking analyzer is dropped, never
// fatal — the run completes with zero lint findings.
func TestAnalyzerPanicIsolated(t *testing.T) {
	fault.Install(fault.MustParse("analyze.panic:1", 1))
	defer fault.Uninstall()

	tr := RunReAct(quartusCfg(3, true), brokenClk)
	if tr.Aborted != "" {
		t.Fatalf("analyzer panic aborted the run: %s", tr.Aborted)
	}
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
