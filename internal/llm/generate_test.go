package llm

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/dataset"
	"repro/internal/inject"
)

// directSemanticMutate is semanticMutate without the mutant table: every
// call runs the mutators and the frontend on the reference in the random
// order. Kept as the oracle for the table.
func directSemanticMutate(ref string, rng *rand.Rand) string {
	subtle := len(semanticMutators) - 2
	order := rng.Perm(subtle)
	order = append(order, subtle, subtle+1)
	for _, i := range order {
		out, ok := semanticMutators[i].apply(ref)
		if !ok || out == ref {
			continue
		}
		if _, design, _ := compiler.Frontend(out); design != nil {
			return out
		}
	}
	return ref
}

// directGenerate is Generate over directSemanticMutate.
func directGenerate(ref string, rates GenRates, rng *rand.Rand) Sample {
	roll := rng.Float64()
	switch {
	case roll < rates.Pass:
		return Sample{Code: decorate(ref, rng), Kind: KindPass, LogicOK: true}
	case roll < rates.Pass+(1-rates.Pass)*rates.SyntaxGivenFail:
		base := ref
		logicOK := true
		if rng.Float64() >= rates.LogicOKGivenSyntax {
			mutated := directSemanticMutate(ref, rng)
			logicOK = mutated == ref
			base = mutated
		}
		k := 1
		if rng.Float64() < rates.TwoErrors {
			k = 2
		}
		broken, muts := inject.InjectRandom(base, k, rng)
		if len(muts) == 0 {
			broken = strings.Replace(base, "endmodule", "", 1)
			muts = nil
		}
		return Sample{Code: decorate(broken, rng), Kind: KindSyntaxErr, Mutations: muts, LogicOK: logicOK}
	default:
		mutated := directSemanticMutate(ref, rng)
		return Sample{Code: decorate(mutated, rng), Kind: KindSimErr, LogicOK: mutated == ref}
	}
}

// allProblems is every problem of the three suites.
func allProblems(t *testing.T) []*dataset.Problem {
	t.Helper()
	var out []*dataset.Problem
	for _, s := range []dataset.Suite{dataset.SuiteHuman, dataset.SuiteMachine, dataset.SuiteRTLLM} {
		out = append(out, dataset.Problems(s)...)
	}
	if len(out) != 314 {
		t.Fatalf("%d problems, want 314", len(out))
	}
	return out
}

// edgeRefs are compiling references on which some mutator's output does
// not compile, which no corpus reference has, and one no mutator
// changes.
var edgeRefs = []string{
	// invert-nba-rhs takes the comparison's "<=" and breaks the if;
	// nothing else applies, so the sample falls back to the reference.
	"module top_module(input clk, input [3:0] a, input [3:0] b, output reg q);\n\talways @(posedge clk)\n\t\tif (a <= b) q <= 1'b1;\n\t\telse q <= 1'b0;\nendmodule\n",
	// The same broken fallback, then invert-assign-rhs compiles.
	"module top_module(input clk, input [3:0] a, input [3:0] b, input c, output reg q, output y);\n\talways @(posedge clk)\n\t\tif (a <= b) q <= 1'b1;\n\t\telse q <= 1'b0;\n\tassign y = c;\nendmodule\n",
	// swap-ternary moves ", b}" into the first arm and breaks the
	// concatenation; drop-invert and invert-assign-rhs compile.
	"module top_module(input s, input [1:0] a, input [1:0] b, input [1:0] c, output [3:0] y);\n\tassign y = {s ? a : ~b, c};\nendmodule\n",
	// No mutator applies.
	"module top_module(input a, output y);\nendmodule\n",
}

// generateInput is a reference and the rates it is sampled under.
type generateInput struct {
	ref   string
	rates GenRates
}

// generateInputs is every problem's reference under its suite's rates,
// and each edge reference under the defaults.
func generateInputs(t *testing.T) []generateInput {
	t.Helper()
	var in []generateInput
	for _, p := range allProblems(t) {
		in = append(in, generateInput{p.RefSource, RatesFor(string(p.Suite), string(p.Difficulty))})
	}
	for _, ref := range edgeRefs {
		if _, design, diags := compiler.Frontend(ref); design == nil {
			t.Fatalf("edge reference does not compile: %v\n%s", diags, ref)
		}
		in = append(in, generateInput{ref, RatesFor("", "")})
	}
	return in
}

// TestGenerateMatchesDirectMutation: over every problem and the edge
// references, several seeds and rates that force each branch, Generate
// through a cold table, the same table warm, and the process-wide table
// each give the direct path's Sample and leave the RNG where it leaves
// it.
func TestGenerateMatchesDirectMutation(t *testing.T) {
	inputs := generateInputs(t)
	forced := []GenRates{
		{Pass: 1}, // pass
		{SyntaxGivenFail: 1, LogicOKGivenSyntax: 1}, // syntax error over the reference
		{SyntaxGivenFail: 1, TwoErrors: 0.5},        // syntax error over a mutant
		{},                                          // simulation error
	}
	const samples = 3
	kinds := map[SampleKind]int{}
	mutated := 0
	for _, seed := range []int64{1, 7, 2024} {
		table := newMutantTable()
		for _, round := range []string{"cold", "warm", "process-wide"} {
			gen := table.generate
			if round == "process-wide" {
				gen = Generate
			}
			for ii, in := range inputs {
				rateSets := append([]GenRates{in.rates}, forced...)
				for ri, rates := range rateSets {
					s := seed*1_000_003 + int64(ii*len(rateSets)+ri)
					want, got := rand.New(rand.NewSource(s)), rand.New(rand.NewSource(s))
					for i := 0; i < samples; i++ {
						w := directGenerate(in.ref, rates, want)
						g := gen(in.ref, rates, got)
						if !reflect.DeepEqual(g, w) {
							t.Fatalf("seed %d %s, input %d rates %+v sample %d:\n got %+v\nwant %+v", seed, round, ii, rates, i, g, w)
						}
						if round == "cold" {
							kinds[w.Kind]++
							if w.Kind != KindPass && !w.LogicOK {
								mutated++
							}
						}
					}
					if g, w := got.Int63(), want.Int63(); g != w {
						t.Fatalf("seed %d %s, input %d rates %+v: next Int63 %d, want %d", seed, round, ii, rates, g, w)
					}
				}
			}
		}
	}
	if kinds[KindPass] == 0 || kinds[KindSyntaxErr] == 0 || kinds[KindSimErr] == 0 || mutated == 0 {
		t.Fatalf("a branch went unexercised: kinds %v, %d wrong-logic samples", kinds, mutated)
	}
}

// TestMutantTableConcurrent: goroutines drawing from one cold table over
// shared references get the direct path's mutants (run under -race).
func TestMutantTableConcurrent(t *testing.T) {
	problems := allProblems(t)[:40]
	const workers, draws = 4, 3
	table := newMutantTable()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for pi, p := range problems {
				s := int64(w*len(problems) + pi)
				got, want := rand.New(rand.NewSource(s)), rand.New(rand.NewSource(s))
				for i := 0; i < draws; i++ {
					if g, d := table.semanticMutate(p.RefSource, got), directSemanticMutate(p.RefSource, want); g != d {
						t.Errorf("worker %d, %s draw %d: table and direct mutants differ", w, p.ID, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestMutantTableHoldsEveryReference: a row per distinct reference of the
// three suites fits at mutantCapacity with nothing displaced.
func TestMutantTableHoldsEveryReference(t *testing.T) {
	table := newMutantTable()
	distinct := map[string]bool{}
	for _, p := range allProblems(t) {
		distinct[p.RefSource] = true
		table.rows.Get(p.RefSource)
	}
	if got := table.rows.Len(); got != len(distinct) {
		t.Fatalf("%d rows for %d distinct references", got, len(distinct))
	}
	if st := table.rows.Stats(); st.Evictions != 0 {
		t.Fatalf("filling the table displaced %d rows", st.Evictions)
	}
	t.Logf("%d distinct references", len(distinct))
}
