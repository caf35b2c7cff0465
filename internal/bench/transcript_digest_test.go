package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/agent"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/curate"
)

// transcriptDigest is the SHA-256 of every repair transcript produced by
// TestTranscriptDigest. It pins the bytes of the whole repair path (the
// pre-fixer, the simulated model's reading and rewriting, the compiler
// personas and retrieval), so a change meant to be a pure refactor or
// optimisation of those layers must leave it unchanged. Regenerate it
// only for a change that deliberately alters repair output, and say so.
const transcriptDigest = "f13a951c5772811ae7c6882e722e3e8dc705f0e78026211386bb471f61d1f65d"

// TestTranscriptDigest runs all curated entries (seed 2024) through the
// 14 defined Table 1 configurations at one repeat and hashes each
// transcript: every step (thoughts, revision notes, compile logs,
// retrieved guidance), the iteration count, success, the pre-fixer rules
// and the final code.
func TestTranscriptDigest(t *testing.T) {
	const seed = 2024
	entries, _ := curate.Build(curate.Options{Seed: seed})
	if len(entries) != 212 {
		t.Fatalf("curated %d entries, want 212", len(entries))
	}
	h := sha256.New()
	configs := 0
	for _, prompt := range []core.Mode{core.ModeOneShot, core.ModeReAct} {
		for _, rag := range []bool{false, true} {
			for _, cb := range [][2]string{{"simple", "gpt-3.5"}, {"iverilog", "gpt-3.5"}, {"quartus", "gpt-3.5"}, {"quartus", "gpt-4"}} {
				comp, _ := compiler.ByName(cb[0])
				if rag && comp.InfoScore() == 0 {
					continue // undefined cell: RAG needs a compiler log
				}
				f, err := core.New(core.Options{
					CompilerName: cb[0], PersonaName: cb[1], RAG: rag, Mode: prompt, Seed: seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				configs++
				fmt.Fprintf(h, "config %s rag=%v %s %s\n", prompt, rag, cb[0], cb[1])
				for i, e := range entries {
					fmt.Fprintf(h, "entry %d\n", i)
					hashTranscript(h, f.Fix("main.v", e.Code, e.SampleSeed))
				}
			}
		}
	}
	if configs != 14 {
		t.Fatalf("ran %d configurations, want 14", configs)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != transcriptDigest {
		t.Fatalf("transcript digest changed:\n got %s\nwant %s", got, transcriptDigest)
	}
}

func hashTranscript(h hash.Hash, tr *agent.Transcript) {
	for _, s := range tr.Steps {
		fmt.Fprintf(h, "%s|%s|%d|%s\n", s.Kind, s.Tool, len(s.Content), s.Content)
	}
	// The constant aborted="" keeps the byte format the pinned digest
	// was taken over.
	fmt.Fprintf(h, "iterations=%d success=%v aborted=\"\" rules=%q\n", tr.Iterations, tr.Success, tr.FixerRules)
	fmt.Fprintf(h, "final %d\n%s\n", len(tr.FinalCode), tr.FinalCode)
}
