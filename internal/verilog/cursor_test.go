package verilog_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/diag"
	"repro/internal/llm"
	"repro/internal/verilog"
)

// parseDigest pins verilog.Parse over parseCorpus: the formatted AST and
// every diagnostic's severity, category, position and message. It was
// recorded with the parser that read from a pre-lexed token array, so
// the streaming cursor that replaced it gives the same trees and the
// same diagnostics on every source.
const parseDigest = "f8bbcbe150e0b342"

// parseCorpus is lexCorpus plus two fixed-seed llm.Generate samples per
// reference (syntax-error mutants among them) and the fixtures under
// testdata/hostile. long_chain.v is left out: it exists to cross the
// binary-chain bound, which changed its parse on purpose;
// TestNestingDepthLimit pins that.
func parseCorpus(t testing.TB) map[string]string {
	srcs := lexCorpus(t)
	for _, s := range []dataset.Suite{dataset.SuiteMachine, dataset.SuiteHuman, dataset.SuiteRTLLM} {
		for i, p := range dataset.Problems(s) {
			rates := llm.RatesFor(string(p.Suite), string(p.Difficulty))
			for seed := int64(1); seed <= 2; seed++ {
				rng := rand.New(rand.NewSource(seed*104729 + int64(i)))
				srcs[fmt.Sprintf("gen/%s/%s/%d", s, p.ID, seed)] = llm.Generate(p.RefSource, rates, rng).Code
			}
		}
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "hostile", "*.v"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata/hostile fixtures (%v)", err)
	}
	for _, f := range files {
		if filepath.Base(f) == "long_chain.v" {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs["hostile/"+filepath.Base(f)] = string(data)
	}
	return srcs
}

func TestParseDigest(t *testing.T) {
	srcs := parseCorpus(t)
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv.New64a()
	withErrors, gens := 0, 0
	for _, name := range names {
		file, diags := verilog.Parse(srcs[name])
		fmt.Fprintf(h, "source %s %d\n%s", name, len(diags), verilog.Format(file))
		for _, d := range diags {
			fmt.Fprintf(h, "%s %s %d:%d %q\n", d.Severity, d.Category, d.Pos.Line, d.Pos.Col, d.Message)
		}
		if diags.HasErrors() {
			withErrors++
			if strings.HasPrefix(name, "gen/") {
				gens++
			}
		}
	}
	got := fmt.Sprintf("%016x", h.Sum64())
	t.Logf("%d sources (%d with parse errors, %d of them generated), digest %s", len(names), withErrors, gens, got)
	if gens == 0 {
		t.Errorf("no generated sample has a parse error; the digest covers no syntax-error mutant")
	}
	if got != parseDigest {
		t.Errorf("parse digest changed:\n got %s\nwant %s", got, parseDigest)
	}
}

// TestBraceLookahead pins the statement-position '{' lookahead: a brace
// whose matching '}' is followed by '=' or '<=' opens a concatenation
// l-value; anything else is the C block idiom, including a brace that
// runs to EOF and a '}' that is the last token.
func TestBraceLookahead(t *testing.T) {
	const (
		head   = "module m(input x, output reg a, output reg b); always @(*) "
		mod    = "module m(input x, output reg a, output reg b);\n\talways @(*)\n\t\t"
		cStyle = "c-style-syntax 1:60 '{' cannot start a statement; Verilog uses 'begin'/'end' for blocks, not braces\n"
	)
	cases := []struct {
		name, src, want string
	}{
		{"blocking", head + "{a,b} = x; endmodule", mod + "{a, b} = x;\nendmodule\n"},
		{"nonblocking", head + "{a,b} <= x; endmodule", mod + "{a, b} <= x;\nendmodule\n"},
		{"c block", head + "{ a = x; } endmodule", mod + ";\nendmodule\n" + cStyle},
		{"unclosed", head + "{a, {b", mod + ";\nendmodule\n" + cStyle + "missing-endmodule 1:66 reached end of file while inside module 'm'; missing 'endmodule'\n"},
		{"last token", head + "{a,b}", mod + ";\nendmodule\n" + cStyle + "missing-endmodule 1:65 reached end of file while inside module 'm'; missing 'endmodule'\n"},
	}
	for _, c := range cases {
		file, diags := verilog.Parse(c.src)
		got := verilog.Format(file)
		for _, d := range diags {
			got += fmt.Sprintf("%s %d:%d %s\n", d.Category, d.Pos.Line, d.Pos.Col, d.Message)
		}
		if got != c.want {
			t.Errorf("%s: parse of %q\n got %q\nwant %q", c.name, c.src, got, c.want)
		}
	}
}

// maxParseBytes bounds what parsing all 314 references may allocate:
// the ASTs and diagnostics, with no per-token buffer. Streaming parses
// allocate 406,344 bytes; the parser that first lexed each source into
// a token array of 48-byte tokens, sized len(src)/4+8, allocated
// 1,923,400, about 12 bytes per source byte on top.
const maxParseBytes = 768 << 10

func TestParseAllocBytes(t *testing.T) {
	var srcs []string
	for _, s := range []dataset.Suite{dataset.SuiteMachine, dataset.SuiteHuman, dataset.SuiteRTLLM} {
		for _, p := range dataset.Problems(s) {
			srcs = append(srcs, p.RefSource)
		}
	}
	diags := make([]diag.List, len(srcs))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, src := range srcs {
		_, diags[i] = verilog.Parse(src)
	}
	runtime.ReadMemStats(&after)
	for _, d := range diags {
		if d.HasErrors() {
			t.Fatalf("a reference does not parse: %s", d.Summary())
		}
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("parsing %d references allocated %d bytes", len(srcs), got)
	if got > maxParseBytes {
		t.Errorf("parsing the references allocated %d bytes, over the %d bound", got, maxParseBytes)
	}
}
