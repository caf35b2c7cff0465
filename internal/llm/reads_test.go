package llm_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/agent"
	"repro/internal/compiler"
	"repro/internal/curate"
	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/memo"
	"repro/internal/rag"
)

// textSet collects texts without repeats, in first-seen order.
type textSet struct {
	seen map[string]bool
	list []string
}

func (s *textSet) add(text string) {
	if s.seen == nil {
		s.seen = map[string]bool{}
	}
	if !s.seen[text] {
		s.seen[text] = true
		s.list = append(s.list, text)
	}
}

// recordingCompiler records every candidate the agent compiles, which
// is every code the model inspects blind.
type recordingCompiler struct {
	compiler.Compiler
	srcs *textSet
}

func (c recordingCompiler) Compile(filename, src string) compiler.Result {
	c.srcs.add(src)
	return c.Compiler.Compile(filename, src)
}

// recordingRetriever records every log the agent retrieves on.
type recordingRetriever struct {
	rag.Retriever
	logs *textSet
}

func (r recordingRetriever) Retrieve(db *rag.Database, log string, k int) []rag.Entry {
	r.logs.add(log)
	return r.Retriever.Retrieve(db, log, k)
}

var (
	table1Once       sync.Once
	table1Srcs       textSet
	table1Logs       textSet
	table1EntryCount int
)

// table1Reads runs every defined Table 1 configuration once (seed 2024,
// one repeat, compile cache and retrieval index on, as core builds them)
// over the curated entries, and returns the texts the hot path reads:
// every code the model inspects blind (each candidate, the 212 curated
// entries and the 314 dataset references), and every log the exact-tag
// retriever reads (each retrieved log, plus each persona's log of every
// curated entry and every reference). Both oracles below share the run.
func table1Reads(t *testing.T) (srcs, logs []string) {
	t.Helper()
	table1Once.Do(func() {
		const seed = 2024
		entries, _ := curate.Build(curate.Options{Seed: seed})
		table1EntryCount = len(entries)
		var texts []string
		for _, e := range entries {
			texts = append(texts, e.Code)
		}
		for _, s := range []dataset.Suite{dataset.SuiteMachine, dataset.SuiteHuman, dataset.SuiteRTLLM} {
			for _, p := range dataset.Problems(s) {
				texts = append(texts, p.RefSource)
			}
		}
		for _, text := range texts {
			table1Srcs.add(text)
		}
		for _, persona := range compiler.All() {
			for _, text := range texts {
				table1Logs.add(persona.Compile("main.v", text).Log)
			}
		}
		models := map[string][]string{"Simple": {"gpt-3.5"}, "iverilog": {"gpt-3.5"}, "Quartus": {"gpt-3.5", "gpt-4"}}
		for _, persona := range compiler.All() {
			comp := recordingCompiler{memo.NewCompileCache(0).Cached(persona), &table1Srcs}
			for _, model := range models[persona.Name()] {
				p, _ := llm.PersonaByName(model)
				for _, withRAG := range []bool{false, true} {
					if withRAG && persona.InfoScore() == 0 {
						continue // Table 1's undefined cell: RAG needs a log
					}
					var db *rag.Database
					var retriever rag.Retriever
					if withRAG {
						db = rag.ForCompiler(persona.Name())
						retriever = recordingRetriever{memo.NewRetrievalIndex(db).Wrap(nil), &table1Logs}
					}
					for _, run := range []func(agent.Config, string) *agent.Transcript{agent.RunOneShot, agent.RunReAct} {
						for _, e := range entries {
							run(agent.Config{
								Compiler: comp, Model: llm.NewModel(p, seed^e.SampleSeed),
								DB: db, Retriever: retriever, SampleSeed: e.SampleSeed,
							}, e.Code)
						}
					}
				}
			}
		}
	})
	if table1EntryCount != 212 {
		t.Fatalf("%d curated entries, want 212", table1EntryCount)
	}
	return table1Srcs.list, table1Logs.list
}

// TestCachedBlindHypothesesMatchUncached is the oracle of the model's
// cached blind inspection: over every code table1Reads collects, the
// process-wide cache returns exactly BlindHypotheses' result on the miss
// and on the hit, and two callers appending to the returned slice do not
// share a backing array.
func TestCachedBlindHypothesesMatchUncached(t *testing.T) {
	srcs, _ := table1Reads(t)
	if len(srcs) < 314+212+300 {
		t.Fatalf("only %d inputs: the run lost its coverage", len(srcs))
	}
	found := 0
	for _, src := range srcs {
		want := llm.BlindHypotheses(src)
		for pass := 0; pass < 2; pass++ {
			got := llm.CachedBlindHypotheses(src)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d: cached BlindHypotheses(%q) = %+v, want %+v", pass, src, got, want)
			}
		}
		// Two callers appending to the shared value must not write into
		// one backing array.
		a := append(llm.CachedBlindHypotheses(src), llm.Hypothesis{Excerpt: "a"})
		b := append(llm.CachedBlindHypotheses(src), llm.Hypothesis{Excerpt: "b"})
		if a[len(a)-1].Excerpt != "a" || b[len(b)-1].Excerpt != "b" {
			t.Fatalf("appends to the cached value of %q share its backing array", src)
		}
		found += len(want)
	}
	if found == 0 {
		t.Fatal("no input yields a blind hypothesis")
	}
	t.Logf("%d inputs, %d hypotheses", len(srcs), found)
}

// TestCachedExactTagMatchesUncached is the oracle of the exact-tag
// results a retrieval index caches: over every log table1Reads collects
// and both curated databases, the cached results equal the naive
// rag.ExactTag scan's on the miss and on the hit, and two callers
// appending to the returned list do not share a backing array.
func TestCachedExactTagMatchesUncached(t *testing.T) {
	_, logs := table1Reads(t)
	if len(logs) < 200 {
		t.Fatalf("only %d logs: the run lost its coverage", len(logs))
	}
	found := 0
	for _, name := range []string{"Quartus", "iverilog"} {
		db := rag.ForCompiler(name)
		indexed := memo.NewRetrievalIndex(db).Wrap(rag.ExactTag{})
		for _, log := range logs {
			want := rag.ExactTag{}.Retrieve(db, log, 4)
			for pass := 0; pass < 2; pass++ {
				got := indexed.Retrieve(db, log, 4)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s pass %d: cached exact-tag results differ on log %q", name, pass, log)
				}
			}
			// Two callers appending to the shared result must not write
			// into one backing array.
			a := append(indexed.Retrieve(db, log, 4), rag.Entry{ID: "a"})
			b := append(indexed.Retrieve(db, log, 4), rag.Entry{ID: "b"})
			if a[len(a)-1].ID != "a" || b[len(b)-1].ID != "b" {
				t.Fatalf("%s: appends to the cached result of log %q share its backing array", name, log)
			}
			found += len(want)
		}
	}
	if found == 0 {
		t.Fatal("no log retrieves an entry")
	}
	t.Logf("%d logs, %d entries retrieved", len(logs), found)
}
