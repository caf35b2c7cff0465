package llm

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/diag"
	"repro/internal/rag"
)

// Persona parameterizes the simulated model. The two stock personas mirror
// the paper's GPT-3.5 and GPT-4 ablation (§4.3.2): the stronger persona
// has high base competence everywhere and strong blind inspection, which
// is why its One-shot and ReAct results nearly coincide in Table 1.
type Persona struct {
	// Name appears in tables and transcripts.
	Name string
	// Competence maps categories to the probability of correctly
	// executing that category's repair strategy once localized, before
	// difficulty and guidance adjustments.
	Competence map[diag.Category]float64
	// DefaultCompetence applies to categories missing from Competence.
	DefaultCompetence float64
	// DifficultyWeight scales how much an instance's structural
	// difficulty depresses the success probability.
	DifficultyWeight float64
	// ReadSkill scales log-hypothesis confidence into localization
	// probability.
	ReadSkill float64
	// BlindSkill scales blind-hypothesis confidence.
	BlindSkill float64
	// BlindAcuity is the floor-raising term for blind inspection: strong
	// models spot subtle defects (masked second errors) that weak models
	// need a compiler to find. pLoc = conf*BlindSkill + BlindAcuity*(1-conf).
	BlindAcuity float64
	// ThoughtBonus is added to localization and execution when ReAct
	// intermediate reasoning is enabled (the chain-of-thought effect that
	// lifts even the Simple-feedback column).
	ThoughtBonus float64
	// GuidanceGain is the fraction of the remaining gap to 0.98 closed
	// when retrieved guidance matches the error category.
	GuidanceGain float64
	// HallucinationRate is the chance a repair round ends with an extra
	// damaging edit. Guidance halves it.
	HallucinationRate float64
}

// GPT35 returns the gpt-3.5-turbo-like persona. Weak spots follow the
// paper's failure analysis: index arithmetic and non-constant rewrites
// need reasoning the model lacks; mechanical fixes are reliable.
func GPT35() Persona {
	return Persona{
		Name: "gpt-3.5",
		Competence: map[diag.Category]float64{
			diag.CatMissingSemicolon:   0.92,
			diag.CatMissingEndmodule:   0.95,
			diag.CatMisplacedDirective: 0.93,
			diag.CatDuplicateDecl:      0.90,
			diag.CatKeywordAsIdent:     0.85,
			diag.CatMalformedLiteral:   0.85,
			diag.CatCStyleSyntax:       0.82,
			diag.CatInvalidLValue:      0.80,
			diag.CatAssignToReg:        0.80,
			diag.CatSensitivityList:    0.78,
			diag.CatUndeclaredIdent:    0.74,
			diag.CatUnmatchedBeginEnd:  0.72,
			diag.CatIndexOutOfRange:    0.62,
			diag.CatPortMismatch:       0.68,
			diag.CatUnexpectedToken:    0.62,
			diag.CatModuleStructure:    0.55,
			diag.CatNonConstantExpr:    0.30,
			diag.CatBadConcat:          0.50,
			diag.CatGiveUp:             0.45,
		},
		DefaultCompetence: 0.55,
		DifficultyWeight:  0.55,
		ReadSkill:         0.97,
		BlindSkill:        0.95,
		BlindAcuity:       0.12,
		ThoughtBonus:      0.12,
		GuidanceGain:      0.95,
		HallucinationRate: 0.04,
	}
}

// GPT4 returns the GPT-4-like persona: uniformly strong, low
// hallucination, and blind inspection nearly as good as a compiler log —
// the reason ReAct adds only ~1 point over One-shot for it.
func GPT4() Persona {
	return Persona{
		Name:              "gpt-4",
		Competence:        map[diag.Category]float64{diag.CatNonConstantExpr: 0.75, diag.CatIndexOutOfRange: 0.88},
		DefaultCompetence: 0.98,
		DifficultyWeight:  0.15,
		ReadSkill:         1.0,
		BlindSkill:        0.98,
		BlindAcuity:       0.80,
		ThoughtBonus:      0.04,
		GuidanceGain:      0.92,
		HallucinationRate: 0.005,
	}
}

// PersonaByName resolves "gpt-3.5" / "gpt-4".
func PersonaByName(name string) (Persona, bool) {
	switch strings.ToLower(name) {
	case "gpt-3.5", "gpt-3.5-turbo", "gpt3.5":
		return GPT35(), true
	case "gpt-4", "gpt4":
		return GPT4(), true
	}
	return Persona{}, false
}

func (p Persona) competence(c diag.Category) float64 {
	if v, ok := p.Competence[c]; ok {
		return v
	}
	return p.DefaultCompetence
}

// RepairRequest is one "please fix this code" turn.
type RepairRequest struct {
	// Code is the current erroneous source.
	Code string
	// Feedback is the compiler message the model sees (persona-formatted
	// log, or the Simple instruction).
	Feedback string
	// Guidance holds retrieved RAG entries, empty without RAG.
	Guidance []rag.Entry
	// Thought enables ReAct intermediate reasoning.
	Thought bool
	// SampleSeed identifies the problem instance. Capability rolls are
	// deterministic per (sample, category, persona): retrying the same
	// failed category on the same sample keeps failing, which is what
	// keeps 10 ReAct iterations from trivially fixing everything.
	SampleSeed int64
	// Iteration is the ReAct round number (adds fresh per-round jitter).
	Iteration int
}

// RepairResult is the model's revision.
type RepairResult struct {
	Code string
	// Notes describes the edits, in transcript-ready prose.
	Notes []string
	// Attempted counts hypotheses the model acted on.
	Attempted int
}

// Model is a simulated LLM with a random source. A mutex serializes
// Repair calls so a Model shared across goroutines is memory-safe —
// but the roll sequence then depends on arrival order, so for
// reproducible transcripts still create one Model per run (as
// core.FixTraced does, seeding each with Seed^sampleSeed).
type Model struct {
	Persona Persona
	mu      sync.Mutex
	rng     *rand.Rand
}

// NewModel builds a model with a deterministic seed.
func NewModel(p Persona, seed int64) *Model {
	return NewModelRand(p, rand.New(rand.NewSource(seed)))
}

// NewModelRand builds a model that draws its rolls from rng. A model from
// NewModel(p, seed) behaves exactly like one from NewModelRand(p, rng)
// once rng.Seed(seed) is called. The model owns rng until the caller's
// last Repair returns; callers reuse generators this way to skip the
// allocation of a fresh source per run.
func NewModelRand(p Persona, rng *rand.Rand) *Model {
	return &Model{Persona: p, rng: rng}
}

// aptitude returns the stable per-(sample, category) uniform draw in
// [0,1): the model's intrinsic ability on this instance. Deterministic so
// ReAct retries of an identical repair stay failed. It hashes, with
// FNV-64a, the bytes fmt's "%d|%d|%s" prints for (seed, cat, persona
// name); TestAptitudeMatchesFmt holds it to that form.
func (m *Model) aptitude(seed int64, cat diag.Category) float64 {
	var buf [48]byte
	b := strconv.AppendInt(buf[:0], seed, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(cat), 10)
	b = append(b, '|')
	h := uint64(fnvOffset64)
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	for i := 0; i < len(m.Persona.Name); i++ {
		h = (h ^ uint64(m.Persona.Name[i])) * fnvPrime64
	}
	return float64(h%1_000_000) / 1_000_000
}

// The FNV-64a parameters (hash/fnv).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Repair produces a revised version of the code. It merges hypotheses from
// the compiler log with blind visual inspection, then for each hypothesis
// rolls localization and strategy execution, applying real text edits.
func (m *Model) Repair(req RepairRequest) RepairResult {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.Persona
	res := RepairResult{Code: req.Code}

	// Gather hypotheses. Log-derived ones carry the feedback quality;
	// blind ones depend only on the model.
	var hyps []Hypothesis
	for _, h := range AnalyzeLog(req.Feedback) {
		h.Confidence = clamp01(h.Confidence * p.ReadSkill)
		hyps = append(hyps, h)
	}
	thoughtBoost := 0.0
	if req.Thought {
		thoughtBoost = p.ThoughtBonus
	}
	for _, h := range blind.Get(req.Code) {
		h.Confidence = clamp01(h.Confidence*p.BlindSkill + p.BlindAcuity*(1-h.Confidence) + thoughtBoost*0.5)
		hyps = append(hyps, h)
	}
	hyps = dedupHypotheses(hyps)

	if len(hyps) == 0 {
		// Nothing spotted: flail. Half the time the model rewrites
		// something harmlessly, half the time it damages the code.
		if m.rng.Float64() < 0.5 {
			code, note := botch(res.Code, m.rng)
			res.Code = code
			res.Notes = append(res.Notes, "no clear fault found; "+note)
		} else {
			res.Notes = append(res.Notes, "no clear fault found; returned the code unchanged")
		}
		return res
	}

	guidanceByCat := map[diag.Category]bool{}
	for _, e := range req.Guidance {
		guidanceByCat[e.Category] = true
		// Guidance generalizes within its syntax family: advice about a
		// missing semicolon helps with any bare "syntax error" hypothesis
		// and vice versa, since the repair playbook is shared.
		for _, rel := range categoryFamily(e.Category) {
			guidanceByCat[rel] = true
		}
	}

	for _, h := range hyps {
		// Localization roll: does the model act on this hypothesis?
		// Matching guidance helps find the error, not just fix it — the
		// retrieved entries say where this class of fault lives. Like
		// execution, localization is mostly a persistent per-sample
		// aptitude: iterating without new information does not reveal an
		// error the model cannot see; only fresh feedback, reasoning, or
		// guidance moves pLoc.
		pLoc := clamp01(h.Confidence + thoughtBoost*0.6)
		if guidanceByCat[h.Category] {
			pLoc += 0.6 * (0.97 - pLoc)
		}
		uLoc := m.aptitude(req.SampleSeed*2654435761+1, h.Category)
		locJitter := m.rng.NormFloat64() * 0.04
		if uLoc >= pLoc+locJitter {
			continue
		}
		res.Attempted++
		out := applyStrategy(res.Code, h)
		if !out.Applied {
			// The strategy had no structural purchase; occasionally the
			// model hacks at the code anyway.
			if m.rng.Float64() < 0.15 {
				code, note := botch(res.Code, m.rng)
				res.Code = code
				res.Notes = append(res.Notes, out.Note+"; "+note)
			} else {
				res.Notes = append(res.Notes, out.Note)
			}
			continue
		}
		// Execution roll: aptitude vs adjusted competence.
		pExec := p.competence(h.Category) - p.DifficultyWeight*out.StructDifficulty + thoughtBoost*0.3
		if guidanceByCat[h.Category] {
			pExec += p.GuidanceGain * (0.99 - pExec)
		}
		// Iterative refinement: each ReAct round adds context (earlier
		// observations stay in the prompt), slowly lifting competence —
		// the late-iteration rescues in Figure 7's tail.
		pExec += 0.005 * float64(req.Iteration)
		pExec = clamp01(pExec)
		u := m.aptitude(req.SampleSeed, h.Category)
		jitter := m.rng.NormFloat64() * 0.04 // fresh per round: the Fig. 7 tail
		if u < pExec+jitter {
			res.Code = out.Code
			res.Notes = append(res.Notes, out.Note)
		} else {
			// Confidently wrong: the model "fixes" something else.
			if m.rng.Float64() < 0.15 {
				code, note := botch(res.Code, m.rng)
				res.Code = code
				res.Notes = append(res.Notes, "misdiagnosed the error; "+note)
			} else {
				res.Notes = append(res.Notes, "attempted a fix that did not address the error")
			}
		}
	}

	// Hallucination: a final destructive flourish.
	hall := p.HallucinationRate
	if len(req.Guidance) > 0 {
		hall /= 2
	}
	if m.rng.Float64() < hall {
		code, note := botch(res.Code, m.rng)
		res.Code = code
		res.Notes = append(res.Notes, "hallucinated an extra change: "+note)
	}
	if len(res.Notes) == 0 {
		res.Notes = append(res.Notes, "reviewed the diagnostics but made no change")
	}
	return res
}

// dedupHypotheses keeps the highest-confidence hypothesis per
// (line, category) and orders the result by confidence.
func dedupHypotheses(hyps []Hypothesis) []Hypothesis {
	type key struct {
		line int
		cat  diag.Category
	}
	best := map[key]Hypothesis{}
	for _, h := range hyps {
		k := key{h.Line, h.Category}
		if prev, ok := best[k]; !ok || h.Confidence > prev.Confidence {
			best[k] = h
		}
	}
	out := make([]Hypothesis, 0, len(best))
	for _, h := range best {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		return out[i].Category < out[j].Category
	})
	return out
}

// Thought renders a ReAct Thought line for the current situation, for
// transcripts (Fig. 2c style).
func Thought(feedback string, hyps []Hypothesis) string {
	if len(hyps) == 0 {
		if strings.TrimSpace(feedback) == "" || strings.Contains(feedback, "Correct the syntax error") {
			return "The compiler gave no details. I will inspect the code for common Verilog syntax mistakes."
		}
		return "The log is uninformative. I will re-read the code structure around the reported lines."
	}
	h := hyps[0]
	switch h.Category {
	case diag.CatUndeclaredIdent:
		return fmt.Sprintf("The code references '%s' which is never declared. I should declare it or fix the name, then recompile.", h.Symbol)
	case diag.CatInvalidLValue:
		return fmt.Sprintf("The signal '%s' is driven inside an always block but is declared as a wire. It must become a reg, or the block an assign.", h.Symbol)
	case diag.CatIndexOutOfRange:
		return "An index falls outside the declared vector range. I need to recompute the index bounds."
	case diag.CatCStyleSyntax:
		return "The code uses C operators that Verilog lacks. I will expand them into full assignments."
	case diag.CatUnmatchedBeginEnd:
		return "The begin/end blocks are unbalanced. I will close the open block."
	case diag.CatMissingSemicolon:
		return "A statement is missing its semicolon near the reported line."
	default:
		return fmt.Sprintf("The first error is %s at line %d. I will fix it and recompile.", h.Category, h.Line)
	}
}

// categoryFamily lists categories whose repair playbooks overlap enough
// that guidance for one transfers to the others (all the parse-level
// syntax classes form one family; everything else stands alone).
func categoryFamily(c diag.Category) []diag.Category {
	syntaxFamily := []diag.Category{
		diag.CatUnexpectedToken, diag.CatMissingSemicolon,
		diag.CatCStyleSyntax, diag.CatMalformedLiteral,
		diag.CatUnmatchedBeginEnd, diag.CatMissingEndmodule,
		diag.CatModuleStructure, diag.CatGiveUp, diag.CatBadConcat,
		diag.CatKeywordAsIdent, diag.CatSensitivityList,
		diag.CatMisplacedDirective,
	}
	for _, s := range syntaxFamily {
		if c == s {
			return syntaxFamily
		}
	}
	return nil
}
