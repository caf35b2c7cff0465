package bench

import (
	"reflect"
	"testing"

	"repro/internal/agent"
	"repro/internal/analyze"
	"repro/internal/compiler"
	"repro/internal/curate"
	"repro/internal/fixer"
	"repro/internal/llm"
	"repro/internal/memo"
	"repro/internal/rag"
)

// findingsChecker wraps a persona and, on every compile, compares the
// result's findings with a fresh analyze.Source run over the same text.
type findingsChecker struct {
	compiler.Compiler
	t       *testing.T
	label   string
	checked int
	linted  int
}

func (c *findingsChecker) Compile(filename, src string) compiler.Result {
	res := c.Compiler.Compile(filename, src)
	got, want := res.Findings(), analyze.Source(src, analyze.Options{})
	if !reflect.DeepEqual(got, want) {
		c.t.Errorf("%s: Result.Findings differs from analyze.Source:\n got %v\nwant %v\nsource:\n%s", c.label, got, want, src)
	}
	c.checked++
	if len(want) > 0 {
		c.linted++
	}
	return res
}

// TestResultFindingsMatchSource is the analyzer-reuse differential: the
// findings a compile result carries equal what analyze.Source reports
// for the same text. It covers all three personas with the compile cache
// off and on, over the 212 curated entries, their pre-fixed forms, and
// every candidate the agent compiles during Table 1's configurations
// (one-shot and ReAct, RAG off and on, both LLM personas on Quartus).
func TestResultFindingsMatchSource(t *testing.T) {
	const seed = 2024
	entries, _ := curate.Build(curate.Options{Seed: seed})
	models := map[string][]string{"Simple": {"gpt-3.5"}, "iverilog": {"gpt-3.5"}, "Quartus": {"gpt-3.5", "gpt-4"}}
	for _, persona := range compiler.All() {
		for _, cache := range []bool{false, true} {
			comp := persona
			if cache {
				comp = memo.NewCompileCache(0).Cached(persona)
			}
			chk := &findingsChecker{Compiler: comp, t: t, label: persona.Name()}
			if cache {
				chk.label += " cached"
			}
			for _, e := range entries {
				chk.Compile("main.v", e.Code)
				chk.Compile("main.v", fixer.Fix(e.Code).Code)
			}
			for _, model := range models[persona.Name()] {
				p, _ := llm.PersonaByName(model)
				for _, withRAG := range []bool{false, true} {
					if withRAG && persona.InfoScore() == 0 {
						continue // Table 1's undefined cell: RAG needs a log
					}
					for _, run := range []func(agent.Config, string) *agent.Transcript{agent.RunOneShot, agent.RunReAct} {
						for _, e := range entries {
							cfg := agent.Config{Compiler: chk, Model: llm.NewModel(p, seed^e.SampleSeed), SampleSeed: e.SampleSeed}
							if withRAG {
								cfg.DB = rag.ForCompiler(persona.Name())
							}
							run(cfg, e.Code)
						}
					}
				}
			}
			if chk.checked < 4*len(entries) || chk.linted == 0 {
				t.Fatalf("%s: %d compiles checked, %d with findings; the sweep lost its coverage", chk.label, chk.checked, chk.linted)
			}
			t.Logf("%s: %d compiles checked, %d with findings", chk.label, chk.checked, chk.linted)
		}
	}
}
