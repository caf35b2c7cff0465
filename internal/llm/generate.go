package llm

import (
	"hash/fnv"
	"math/rand"
	"regexp"
	"strings"
	"sync"

	"repro/internal/compiler"
	"repro/internal/inject"
	"repro/internal/memo"
)

// This file is the *generation* half of the simulated LLM: where repair.go
// models the model fixing code, this models the model writing code in the
// first place — the zero-shot sampling step that produces the erroneous
// implementations the whole paper is about.
//
// Per-suite outcome rates are the simulated model's calibration: what
// fraction of samples are functionally correct, what fraction of failures
// are syntax errors (the paper's headline 55% statistic for Human), and
// how often syntax-broken code is logically correct underneath (which
// bounds how much pass@1 can improve from syntax fixing alone).

// SampleKind classifies a generated sample's ground truth.
type SampleKind int

// Sample kinds.
const (
	// KindPass is functionally correct code.
	KindPass SampleKind = iota
	// KindSyntaxErr fails to compile.
	KindSyntaxErr
	// KindSimErr compiles but fails simulation.
	KindSimErr
)

// String names the kind.
func (k SampleKind) String() string {
	switch k {
	case KindPass:
		return "pass"
	case KindSyntaxErr:
		return "syntax-error"
	case KindSimErr:
		return "simulation-error"
	}
	return "unknown"
}

// GenRates are the generation outcome probabilities for one (suite,
// difficulty) cell.
type GenRates struct {
	// Pass is the probability the sample is functionally correct.
	Pass float64
	// SyntaxGivenFail is the probability a failing sample fails with a
	// syntax error (vs a simulation error).
	SyntaxGivenFail float64
	// LogicOKGivenSyntax is the probability a syntax-broken sample is
	// logically correct underneath, i.e. will pass simulation once its
	// syntax is repaired.
	LogicOKGivenSyntax float64
	// TwoErrors is the probability a syntax-broken sample carries two
	// injected errors rather than one (cascades reward iteration).
	TwoErrors float64
}

// RatesFor returns the gpt-3.5 generation calibration for a suite cell.
// The numbers encode the paper's measured structure: Machine failures are
// mostly syntactic over correct logic (low-level descriptions are easy to
// get logically right), Human-hard failures are mostly semantic, and the
// Human syntax share works out to ~55% of all errors (§1).
func RatesFor(suite string, difficulty string) GenRates {
	switch suite {
	case "machine":
		if difficulty == "easy" {
			return GenRates{Pass: 0.53, SyntaxGivenFail: 0.62, LogicOKGivenSyntax: 0.98, TwoErrors: 0.15}
		}
		return GenRates{Pass: 0.32, SyntaxGivenFail: 0.68, LogicOKGivenSyntax: 0.94, TwoErrors: 0.18}
	case "human":
		if difficulty == "easy" {
			return GenRates{Pass: 0.47, SyntaxGivenFail: 0.55, LogicOKGivenSyntax: 0.55, TwoErrors: 0.15}
		}
		return GenRates{Pass: 0.015, SyntaxGivenFail: 0.52, LogicOKGivenSyntax: 0.14, TwoErrors: 0.18}
	case "rtllm":
		return GenRates{Pass: 0.04, SyntaxGivenFail: 0.30, LogicOKGivenSyntax: 0.18, TwoErrors: 0.35}
	}
	return GenRates{Pass: 0.4, SyntaxGivenFail: 0.55, LogicOKGivenSyntax: 0.5, TwoErrors: 0.35}
}

// SkewRates returns the rates with a deterministic per-problem skew on
// the pass probability. Real pass@k data is strongly correlated within a
// problem — a model either "knows" a circuit or it does not — which is why
// the paper's pass@5 sits far below the i.i.d. prediction. The skew
// spreads problems between mostly-solved and mostly-unsolved while
// preserving the suite-level mean pass rate.
func SkewRates(r GenRates, problemID string) GenRates {
	h := fnv.New64a()
	h.Write([]byte(problemID))
	u := float64(h.Sum64()%1_000_000) / 1_000_000 // uniform in [0,1)
	spread := 1.6 * r.Pass
	if 1-r.Pass < r.Pass {
		spread = 1.6 * (1 - r.Pass)
	}
	p := r.Pass + (u-0.5)*spread
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	out := r
	out.Pass = p
	return out
}

// Sample is one generated implementation with its ground truth.
type Sample struct {
	Code string
	Kind SampleKind
	// Mutations records injected syntax errors (empty otherwise).
	Mutations []inject.Mutation
	// LogicOK is true when the code's logic (ignoring injected syntax
	// errors) matches the reference, i.e. repairing the syntax yields
	// functionally correct code.
	LogicOK bool
}

// Generate produces one sample for a reference solution under the given
// rates. The reference is assumed correct and compiling.
func Generate(ref string, rates GenRates, rng *rand.Rand) Sample {
	return mutants.generate(ref, rates, rng)
}

// generate is Generate reading semantic mutants from t.
func (t *mutantTable) generate(ref string, rates GenRates, rng *rand.Rand) Sample {
	roll := rng.Float64()
	switch {
	case roll < rates.Pass:
		return Sample{Code: decorate(ref, rng), Kind: KindPass, LogicOK: true}
	case roll < rates.Pass+(1-rates.Pass)*rates.SyntaxGivenFail:
		base := ref
		logicOK := true
		if rng.Float64() >= rates.LogicOKGivenSyntax {
			mutated := t.semanticMutate(ref, rng)
			logicOK = mutated == ref
			base = mutated
		}
		k := 1
		if rng.Float64() < rates.TwoErrors {
			k = 2
		}
		broken, muts := inject.InjectRandom(base, k, rng)
		if len(muts) == 0 {
			// No mutator applied (tiny module): fall back to a universal
			// breakage.
			broken = strings.Replace(base, "endmodule", "", 1)
			muts = nil
		}
		return Sample{Code: decorate(broken, rng), Kind: KindSyntaxErr, Mutations: muts, LogicOK: logicOK}
	default:
		mutated := t.semanticMutate(ref, rng)
		return Sample{Code: decorate(mutated, rng), Kind: KindSimErr, LogicOK: mutated == ref}
	}
}

// decorate adds the cosmetic noise LLM chat output carries: markdown
// fences and lead-in prose (which the rule-based fixer strips), sometimes
// a gratuitous timescale at file top (legal there).
func decorate(code string, rng *rand.Rand) string {
	switch rng.Intn(6) {
	case 0:
		return "Here is the Verilog implementation:\n```verilog\n" + code + "```\n"
	case 1:
		return "```\n" + code + "```"
	case 2:
		return "`timescale 1ns/1ps\n" + code
	default:
		return code
	}
}

// ---------- semantic mutation (compiles, wrong behaviour) ----------

// A semanticMutator's result is a function of the text alone, which is
// what lets the mutant table compute it once per reference.
type semanticMutator struct {
	name  string
	apply func(src string) (string, bool)
}

var semanticMutators = [...]semanticMutator{
	{"swap-add-sub", reSwap(`([^+])\+ 1\b`, "${1}- 1")},
	{"swap-and-or", reSwapLiteral(" & ", " | ")},
	{"swap-xor-and", reSwapLiteral(" ^ ", " & ")},
	{"flip-equality", reSwapLiteral(" == ", " != ")},
	{"flip-compare", reSwapLiteral(" < ", " >= ")},
	{"swap-ternary", swapTernaryArms},
	{"off-by-one-const", offByOneConstant},
	{"flip-reset-value", flipResetValue},
	{"drop-invert", reSwapLiteral("~", "")},
	{"invert-nba-rhs", invertNBARHS},
	{"invert-assign-rhs", invertAssignRHS},
}

func reSwapLiteral(old, new string) func(string) (string, bool) {
	return func(src string) (string, bool) {
		idx := strings.Index(src, old)
		if idx < 0 {
			return src, false
		}
		return src[:idx] + new + src[idx+len(old):], true
	}
}

func reSwap(pattern, repl string) func(string) (string, bool) {
	re := regexp.MustCompile(pattern)
	return func(src string) (string, bool) {
		loc := re.FindStringIndex(src)
		if loc == nil {
			return src, false
		}
		return re.ReplaceAllString(src[:loc[1]], repl) + src[loc[1]:], true
	}
}

var ternaryRe = regexp.MustCompile(`\?\s*([^:;]+?)\s*:\s*([^;]+?);`)

func swapTernaryArms(src string) (string, bool) {
	m := ternaryRe.FindStringSubmatchIndex(src)
	if m == nil {
		return src, false
	}
	a := src[m[2]:m[3]]
	b := src[m[4]:m[5]]
	return src[:m[2]] + b + src[m[3]:m[4]] + a + src[m[5]:], true
}

var compareConstRe = regexp.MustCompile(`(==|<|>)\s*(\d+)\b`)

func offByOneConstant(src string) (string, bool) {
	m := compareConstRe.FindStringSubmatchIndex(src)
	if m == nil {
		return src, false
	}
	val := src[m[4]:m[5]]
	n := 0
	for i := 0; i < len(val); i++ {
		n = n*10 + int(val[i]-'0')
	}
	if n == 0 {
		n = 2
	} else {
		n--
	}
	return src[:m[4]] + itoa(n) + src[m[5]:], true
}

var resetZeroRe = regexp.MustCompile(`(<=\s*)0(;)`)

func flipResetValue(src string) (string, bool) {
	loc := resetZeroRe.FindStringSubmatchIndex(src)
	if loc == nil {
		return src, false
	}
	// keep group 1 ("<= "), replace the 0, keep the ";"
	return src[:loc[3]] + "1" + src[loc[4]:], true
}

var nbaRHSRe = regexp.MustCompile(`<=\s*([A-Za-z_][^;]*);`)

// invertNBARHS complements the right-hand side of the first non-blocking
// assignment — a near-universal behavioural mutation for clocked designs.
func invertNBARHS(src string) (string, bool) {
	m := nbaRHSRe.FindStringSubmatchIndex(src)
	if m == nil {
		return src, false
	}
	return src[:m[2]] + "~(" + src[m[2]:m[3]] + ")" + src[m[3]:], true
}

var assignRHSRe = regexp.MustCompile(`\bassign\s+[A-Za-z_][A-Za-z0-9_]*\s*=\s*([^;]+);`)

// invertAssignRHS complements the right-hand side of the first continuous
// assignment — the combinational counterpart of invertNBARHS.
func invertAssignRHS(src string) (string, bool) {
	m := assignRHSRe.FindStringSubmatchIndex(src)
	if m == nil {
		return src, false
	}
	return src[:m[2]] + "~(" + src[m[2]:m[3]] + ")" + src[m[3]:], true
}

// mutants is the process-wide mutant table Generate reads.
var mutants = newMutantTable()

// mutantCapacity bounds the mutant table, one row per reference. Callers
// hand Generate the corpus references: the 314 problems of Human,
// Machine and RTLLM carry 171 distinct texts (Human and Machine share
// them). Their hashes put at most 7 in one of the 64 shards, so 448
// rows is the least that holds them all; 256 displace 15 of them, 384
// displace 2 (TestMutantTableHoldsEveryReference, run at each bound).
// 1024 rows (16 per shard) hold every reference with no eviction and
// leave room for texts outside the corpus; a row is a few hundred bytes
// plus the mutants it has computed.
const mutantCapacity = 1024

// mutantTable holds each reference's semantic mutants: one row per
// reference, one slot per mutator, on the cache core (counted in the
// reads layer). A slot is filled the first time a random order reaches
// it, so a reference's first samples do the work semanticMutate always
// did, in the same order, and later samples run no mutator and no
// frontend.
type mutantTable struct {
	rows *memo.Reads[*mutantRow]
}

func newMutantTable() *mutantTable {
	return &mutantTable{rows: memo.NewReads(mutantCapacity, func(string) *mutantRow {
		return new(mutantRow)
	})}
}

// mutantRow is one reference's slots, indexed like semanticMutators.
type mutantRow [len(semanticMutators)]mutantSlot

// mutantSlot is what one mutator makes of one reference, computed once.
type mutantSlot struct {
	once sync.Once
	// out is the mutant, or "" when the mutator does not apply, changes
	// nothing or does not compile (an empty text never compiles, so ""
	// is no mutant's value).
	out string
}

// get returns the slot's mutant of ref under m, computing it on first use.
// A panic in m or the frontend would leave the slot empty for later
// callers (sync.Once counts the call as done); neither panics on the
// corpus references (TestGenerateMatchesDirectMutation).
func (s *mutantSlot) get(ref string, m semanticMutator) string {
	s.once.Do(func() {
		out, ok := m.apply(ref)
		if !ok || out == ref {
			return
		}
		if _, design, _ := compiler.Frontend(out); design != nil {
			s.out = out
		}
	})
	return s.out
}

// semanticMutate applies one compiling-but-wrong transformation: the
// first mutator, in a random order, whose result differs from the
// reference and compiles. It falls back to the reference if none
// applies — an honest tail: some "wrong" samples are accidentally right.
// The order is drawn whether or not the row is warm, so the caller's
// RNG stream does not depend on the table.
func (t *mutantTable) semanticMutate(ref string, rng *rand.Rand) string {
	// Subtle mutators first in random order; the two universal RHS
	// inverters act as a fallback so a "wrong logic" sample almost never
	// silently degenerates into the reference.
	subtle := len(semanticMutators) - 2
	row := t.rows.Get(ref)
	for _, i := range rng.Perm(subtle) {
		if out := row[i].get(ref, semanticMutators[i]); out != "" {
			return out
		}
	}
	for i := subtle; i < len(semanticMutators); i++ {
		if out := row[i].get(ref, semanticMutators[i]); out != "" {
			return out
		}
	}
	return ref
}

// ProposeLogicEdit applies one random local semantic edit — the model's
// move set when asked to repair a logic (simulation) error. It draws from
// the same edit space the generator's mutations live in, so a proposal
// can genuinely invert a wrong-operator or off-by-one defect; whether it
// helps is for the caller's testbench to judge. Returns the input
// unchanged when no edit applies.
func ProposeLogicEdit(src string, rng *rand.Rand) string {
	order := rng.Perm(len(semanticMutators))
	for _, i := range order {
		out, ok := semanticMutators[i].apply(src)
		if ok && out != src {
			return out
		}
	}
	return src
}
