package verilog_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/curate"
	"repro/internal/dataset"
	"repro/internal/fixer"
	"repro/internal/verilog"
)

// lexCorpus is every source the differential covers: all 314 reference
// solutions, the 212 curated erroneous entries (seed 2024, the
// benchmarks' default) with their pre-fixed forms, and the analyzer's
// fixtures under testdata/lint/.
func lexCorpus(t testing.TB) map[string]string {
	srcs := map[string]string{}
	for _, suite := range []dataset.Suite{dataset.SuiteMachine, dataset.SuiteHuman, dataset.SuiteRTLLM} {
		for _, p := range dataset.Problems(suite) {
			srcs["ref/"+string(suite)+"/"+p.ID] = p.RefSource
		}
	}
	entries, _ := curate.Build(curate.Options{Seed: 2024})
	for i, e := range entries {
		srcs[fmt.Sprintf("curated/%d/raw", i)] = e.Code
		srcs[fmt.Sprintf("curated/%d/prefixed", i)] = fixer.Fix(e.Code).Code
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "lint", "*.v"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata/lint fixtures (%v)", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs["lint/"+filepath.Base(f)] = string(data)
	}
	return srcs
}

// TestLexOperatorDispatchDifferential: the first-byte operator table
// yields exactly the token stream of the old scan over the whole
// operator list, on every corpus source.
func TestLexOperatorDispatchDifferential(t *testing.T) {
	srcs := lexCorpus(t)
	if len(srcs) < 314+212 {
		t.Fatalf("corpus has %d sources, want at least %d", len(srcs), 314+212)
	}
	ops := 0
	for name, src := range srcs {
		got, want := verilog.Lex(src), verilog.LexHasPrefix(src)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: token streams differ", name)
			continue
		}
		for _, tok := range got {
			if tok.Kind == verilog.TokOp {
				ops++
			}
		}
	}
	if ops == 0 {
		t.Fatal("corpus lexed to no operator tokens")
	}
}

// FuzzLexOperators checks Lex against the HasPrefix scan on arbitrary
// input, seeded with every operator run and the lint fixtures.
func FuzzLexOperators(f *testing.F) {
	for _, s := range []string{
		"<<<= >>>= === !== ~& ~| ~^ ^~ ++ -- += -: +: -> @* #1 $display",
		"a<=b;c>=d;e==f!=g&&h||i", "{a,b}[3:0]?x:y", "8'hFF ` \" \\esc \x80\xff",
	} {
		f.Add(s)
	}
	files, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "lint", "*.v"))
	for _, file := range files {
		if data, err := os.ReadFile(file); err == nil {
			f.Add(string(data))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		if got, want := verilog.Lex(src), verilog.LexHasPrefix(src); !reflect.DeepEqual(got, want) {
			t.Fatalf("Lex(%q) = %v, HasPrefix scan gives %v", src, got, want)
		}
	})
}
