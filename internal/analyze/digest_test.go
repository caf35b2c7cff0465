package analyze_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analyze"
	"repro/internal/curate"
	"repro/internal/dataset"
	"repro/internal/fixer"
)

// findingsDigest pins every finding analyze.Source reports, field by
// field, over the 314 reference solutions, the 212 curated entries of
// seed 2024 and the testdata/lint fixtures. A change to the analyzer or
// to the frontend facts it reads (sema's constant folder, width rule,
// l-value walk) that moves any finding moves it.
const findingsDigest = "92f753ee85cf5233ba19c496e25c3447903bc99603e9c907f27d4fe4d37ee61f"

func hashFindings(h hash.Hash, name, src string) int {
	fs := analyze.Source(src, analyze.Options{})
	fmt.Fprintf(h, "source %s %d\n", name, len(fs))
	for _, d := range fs {
		fmt.Fprintf(h, "%s %s %d %d:%d %q %q %q %v\n",
			d.Rule, d.Severity, d.Category, d.Pos.Line, d.Pos.Col, d.Symbol, d.Message, d.Suggestion, d.Related)
	}
	return len(fs)
}

func TestFindingsDigest(t *testing.T) {
	h := sha256.New()
	sources, findings := 0, 0
	add := func(name, src string) {
		sources++
		findings += hashFindings(h, name, src)
	}
	for _, suite := range []dataset.Suite{dataset.SuiteMachine, dataset.SuiteHuman, dataset.SuiteRTLLM} {
		for _, p := range dataset.Problems(suite) {
			add(string(suite)+"/"+p.ID, p.RefSource)
		}
	}
	entries, _ := curate.Build(curate.Options{Seed: 2024})
	for i, e := range entries {
		add(fmt.Sprintf("curated/%d/%s", i, e.ProblemID), e.Code)
		add(fmt.Sprintf("prefixed/%d/%s", i, e.ProblemID), fixer.Fix(e.Code).Code)
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "lint", "*.v"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no lint fixtures found (%v)", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		add(filepath.Base(f), string(src))
	}
	if want := 314 + 2*212 + len(files); sources != want {
		t.Fatalf("digest covers %d sources, want %d", sources, want)
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d sources, %d findings, digest %s", sources, findings, got)
	if got != findingsDigest {
		t.Errorf("analyzer findings digest changed:\n got %s\nwant %s", got, findingsDigest)
	}
}
