package bench

import (
	"math/rand"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/inject"
	"repro/internal/verilog"
)

// TestEndToEndRepairRestoresBehaviour is the reproduction's strongest
// integration invariant: take a reference design, inject one syntax error,
// fix it with the strong persona, and verify by simulation that the fixed
// code behaves exactly like the reference. This closes the loop across
// inject → compile → agent → repair → simulate.
func TestEndToEndRepairRestoresBehaviour(t *testing.T) {
	fixer, err := core.New(core.Options{
		CompilerName: "quartus",
		PersonaName:  "gpt-4", // strong persona: failures here mean harness bugs
		RAG:          true,
		Mode:         core.ModeReAct,
		Seed:         99,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))

	// Behaviour-preserving mutators: the repair strategy inverts the
	// mutation exactly, so post-fix simulation must match the golden
	// model. (Mutators like index-overflow change which bit is referenced
	// and repair by clamping, which fixes syntax but not necessarily the
	// original behaviour — those are excluded here and covered by the fix
	// -rate tests instead.)
	invertible := []string{
		"drop-semicolon", "drop-endmodule", "drop-clock-port",
		"misspell-identifier", "reg-to-wire", "wire-to-reg",
		"c-style-increment", "c-style-compound", "misplaced-timescale",
		"duplicate-decl",
	}

	problems := dataset.Problems(dataset.SuiteHuman)
	checked := 0
	for i, p := range problems {
		if i%4 != 0 {
			continue // a quarter of the corpus keeps the test fast
		}
		mName := invertible[rng.Intn(len(invertible))]
		m, _ := inject.ByName(mName)
		broken, _, ok := inject.Inject(p.RefSource, m, rng)
		if !ok {
			continue
		}
		tr := fixer.Fix("main.v", broken, int64(i))
		if !tr.Success {
			// The strong persona may still roll a rare failure; what it
			// must never do is claim success on broken code.
			continue
		}
		res, err := p.Check(tr.FinalCode, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Errorf("%s (%s): fixed code does not simulate: %v\n%s", p.ID, mName, err, tr.FinalCode)
			continue
		}
		if !res.Passed() {
			t.Errorf("%s (%s): fixed code compiles but behaves differently: %s\n%s",
				p.ID, mName, res.FirstMismatch, tr.FinalCode)
			continue
		}
		checked++
	}
	if checked < 20 {
		t.Fatalf("only %d end-to-end cases verified", checked)
	}
	t.Logf("verified %d inject→fix→simulate round trips", checked)
}

// TestPrinterRoundTripOverCorpus parses, prints, and re-elaborates every
// reference design: the printed form must compile cleanly and preserve the
// interface.
func TestPrinterRoundTripOverCorpus(t *testing.T) {
	for _, suite := range []dataset.Suite{dataset.SuiteHuman, dataset.SuiteRTLLM} {
		for _, p := range dataset.Problems(suite) {
			file, diags := verilog.Parse(p.RefSource)
			if diags.HasErrors() {
				t.Fatalf("%s: reference parse failed", p.ID)
			}
			printed := verilog.Format(file)
			_, design, diags2 := compiler.Frontend(printed)
			if design == nil {
				t.Errorf("%s: printed form does not compile: %s\n%s", p.ID, diags2.Summary(), printed)
				continue
			}
			// Interface preserved: same inputs and outputs.
			_, orig, _ := compiler.Frontend(p.RefSource)
			if len(orig.Inputs()) != len(design.Inputs()) || len(orig.Outputs()) != len(design.Outputs()) {
				t.Errorf("%s: printed form changed the interface", p.ID)
			}
		}
	}
}

// TestPrintedCorpusBehavesIdentically simulates the printed form of a
// sample of references against their golden models: printing must be
// behaviour-preserving, not just compile-preserving.
func TestPrintedCorpusBehavesIdentically(t *testing.T) {
	problems := dataset.Problems(dataset.SuiteHuman)
	for i, p := range problems {
		if i%6 != 0 {
			continue
		}
		file, _ := verilog.Parse(p.RefSource)
		printed := verilog.Format(file)
		res, err := p.Check(printed, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Errorf("%s: printed form fails testbench: %v", p.ID, err)
			continue
		}
		if !res.Passed() {
			t.Errorf("%s: printed form mismatches golden model: %s", p.ID, res.FirstMismatch)
		}
	}
}

// TestNoFalseSuccessClaims audits success reporting across a spread of
// configurations: whenever a transcript claims success, the final code
// must actually compile under the session's own persona.
func TestNoFalseSuccessClaims(t *testing.T) {
	entries := testEntries(t)[:60]
	for _, compName := range []string{"simple", "iverilog", "quartus"} {
		comp, _ := compiler.ByName(compName)
		for _, mode := range []core.Mode{core.ModeOneShot, core.ModeReAct} {
			f, err := core.New(core.Options{
				CompilerName: compName, RAG: compName != "simple",
				Mode: mode, Seed: 31})
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				tr := f.Fix("main.v", e.Code, e.SampleSeed)
				got := comp.Compile("main.v", tr.FinalCode).Ok
				if tr.Success && !got {
					t.Fatalf("%s/%s: claimed success on non-compiling code", compName, mode)
				}
				if !tr.Success && got {
					t.Fatalf("%s/%s: claimed failure on compiling code", compName, mode)
				}
			}
		}
	}
}
