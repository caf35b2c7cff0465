package curate

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"
)

// buildDigests pins the curated dataset per seed: a SHA-256 over Stats
// and every field of every Entry (mutation records included). Any change
// to sampling, filtering, clustering or selection moves it.
var buildDigests = map[int64]string{
	5:    "4f7025b76324db366e0209823f88c26bbe41d1da6912e21014f409ec4fec049b",
	2024: "84a9b1cce51f7c8a77349965b8e4d5960ac63374a6dd8cb152fad43e200d22a6",
	7:    "144838810282dfcd3292a8170e6580b1f72a9ab50b2f4fd2867f82b4ab975f70",
}

func hashBuild(h hash.Hash, entries []Entry, stats Stats) {
	fmt.Fprintf(h, "stats %d %d %d %d %d\n", stats.Sampled, stats.CompileFailing, stats.Filtered, stats.Clusters, stats.Final)
	for i, e := range entries {
		fmt.Fprintf(h, "entry %d %q %q %q %q %v %d\n", i, e.ProblemID, e.Suite, e.Description, e.Code, e.LogicOK, e.SampleSeed)
		for _, m := range e.Mutations {
			fmt.Fprintf(h, "mutation %q %d %v %d\n", m.Mutator, m.Category, m.Difficulty, m.Line)
		}
	}
}

func TestBuildDigest(t *testing.T) {
	for _, seed := range []int64{5, 2024, 7} {
		entries, stats := Build(Options{Seed: seed})
		h := sha256.New()
		hashBuild(h, entries, stats)
		if got := hex.EncodeToString(h.Sum(nil)); got != buildDigests[seed] {
			t.Errorf("seed %d: curated dataset digest changed:\n got %s\nwant %s", seed, got, buildDigests[seed])
		}
	}
}

// BenchmarkBuild times one full curation (sampling, filtering,
// clustering, selection) at the default options.
func BenchmarkBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Build(Options{Seed: 2024})
	}
}
