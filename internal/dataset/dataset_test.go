package dataset

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/compiler"
)

func TestSuiteSizesMatchPaper(t *testing.T) {
	human := SuiteStats(SuiteHuman)
	if human.Total != 156 || human.Easy != 71 || human.Hard != 85 {
		t.Fatalf("Human suite = %+v, want 156 total, 71 easy, 85 hard", human)
	}
	machine := SuiteStats(SuiteMachine)
	if machine.Total != 143 {
		t.Fatalf("Machine suite = %+v, want 143 total", machine)
	}
	rtllm := SuiteStats(SuiteRTLLM)
	if rtllm.Total < 12 {
		t.Fatalf("RTLLM suite = %+v, want at least 12 designs", rtllm)
	}
}

func TestUniqueIDs(t *testing.T) {
	for _, suite := range []Suite{SuiteHuman, SuiteMachine, SuiteRTLLM} {
		seen := map[string]bool{}
		for _, p := range Problems(suite) {
			if seen[p.ID] {
				t.Errorf("%s: duplicate ID %s", suite, p.ID)
			}
			seen[p.ID] = true
		}
	}
}

func TestMachineIsSubsetOfHumanCircuits(t *testing.T) {
	humanIDs := map[string]bool{}
	for _, p := range Problems(SuiteHuman) {
		humanIDs[p.ID] = true
	}
	for _, p := range Problems(SuiteMachine) {
		if !humanIDs[p.ID] {
			t.Errorf("machine problem %s not in human suite", p.ID)
		}
	}
}

func TestDescriptionStylesDiffer(t *testing.T) {
	differs := 0
	for _, mp := range Problems(SuiteMachine) {
		hp, ok := ByID(SuiteHuman, mp.ID)
		if !ok {
			continue
		}
		if mp.Description != hp.Description {
			differs++
		}
	}
	if differs < 100 {
		t.Fatalf("only %d problems have distinct machine/human descriptions", differs)
	}
}

// TestAllReferencesCompile is the dataset's most important invariant:
// every reference implementation must pass the frontend cleanly.
func TestAllReferencesCompile(t *testing.T) {
	for _, suite := range []Suite{SuiteHuman, SuiteRTLLM} {
		for _, p := range Problems(suite) {
			_, design, diags := compiler.Frontend(p.RefSource)
			if design == nil {
				t.Errorf("%s/%s: reference does not compile: %s", suite, p.ID, diags.Summary())
			}
		}
	}
}

// TestAllReferencesPassOwnTestbench checks that every problem is well
// formed through the production path (oracle cache, vectors, lockstep
// harness): its reference elaborates, its vectors drive only its inputs,
// it simulates every cycle without a runtime error, and two simulators
// instantiated from one cached program keep independent state. Since the
// reference is its own oracle, a mismatch here is a simulator fault; the
// oracle's power to reject is TestDifferentialTestbenchAccounting's
// inverted references.
func TestAllReferencesPassOwnTestbench(t *testing.T) {
	for _, suite := range []Suite{SuiteHuman, SuiteRTLLM} {
		for _, p := range Problems(suite) {
			p := p
			t.Run(string(suite)+"/"+p.ID, func(t *testing.T) {
				rng := rand.New(rand.NewSource(1234))
				res, err := p.Check(p.RefSource, rng)
				if err != nil {
					t.Fatalf("testbench error: %v", err)
				}
				if !res.Passed() || res.Cycles == 0 {
					t.Fatalf("reference fails its own testbench: %s (%d/%d mismatches)",
						res.FirstMismatch, res.Mismatches, res.Cycles)
				}
			})
		}
	}
}

func TestVectorsDriveAllInputs(t *testing.T) {
	p, ok := ByID(SuiteHuman, "counter_up_w8")
	if !ok {
		t.Fatal("missing problem")
	}
	rng := rand.New(rand.NewSource(7))
	vectors, err := p.Vectors(rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(vectors) < 32 {
		t.Fatalf("only %d vectors", len(vectors))
	}
	// reset preamble held high
	if vectors[0].Inputs["reset"].Uint64() != 1 || vectors[1].Inputs["reset"].Uint64() != 1 {
		t.Fatal("reset preamble missing")
	}
	// clock must not be driven by vectors
	if _, drove := vectors[0].Inputs["clk"]; drove {
		t.Fatal("vectors must not drive the clock")
	}
}

func TestCheckRejectsNonCompiling(t *testing.T) {
	p, ok := ByID(SuiteHuman, "half_adder")
	if !ok {
		t.Fatal("missing problem")
	}
	rng := rand.New(rand.NewSource(9))
	if _, err := p.Check("module broken(", rng); err == nil {
		t.Fatal("non-compiling candidate must error")
	}
}

// TestCheckRequiresReferenceOutputs: a candidate must drive every output
// port of the reference. Dropping one, declaring it as an input, or
// keeping it as an internal wire must fail the check and name the port,
// however well the remaining outputs match.
func TestCheckRequiresReferenceOutputs(t *testing.T) {
	p, ok := ByID(SuiteHuman, "half_adder")
	if !ok {
		t.Fatal("missing problem")
	}
	for name, src := range map[string]string{
		"dropped": `module top_module(input a, input b, output sum);
	assign sum = a ^ b;
endmodule
`,
		"input": `module top_module(input a, input b, output sum, input cout);
	assign sum = a ^ b;
endmodule
`,
		"internal": `module top_module(input a, input b, output sum);
	wire cout;
	assign sum = a ^ b;
	assign cout = a & b;
endmodule
`,
	} {
		res, err := p.Check(src, rand.New(rand.NewSource(9)))
		if err == nil && res.Passed() {
			t.Errorf("%s: candidate without output cout passed %d/%d cycles", name, res.Cycles, res.Cycles)
			continue
		}
		if why := fmt.Sprint(err) + res.FirstMismatch; !strings.Contains(why, `"cout"`) {
			t.Errorf("%s: failure does not name the port: err=%v first=%q", name, err, res.FirstMismatch)
		}
	}
	// the control: the same ports, all present, pass
	if res, err := p.Check(p.RefSource, rand.New(rand.NewSource(9))); err != nil || !res.Passed() {
		t.Fatalf("reference must pass: %+v %v", res, err)
	}
}
