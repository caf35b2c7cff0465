package fixer_test

// Differential oracle for the pre-fixer's text rules. The naive*
// functions are the earlier implementations, kept verbatim: whole-source
// regex counts in dropDuplicateEndmodule, a replacer built per call in
// normalizeSmartQuotes, hoistTimescale without its early return, and
// stripChatProse splitting every source into lines. The package's
// versions must agree with them on every input.

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fixer"
	"repro/internal/llm"
)

var (
	moduleTokenRe    = regexp.MustCompile(`\bmodule\b`)
	endmoduleTokenRe = regexp.MustCompile(`\bendmodule\b`)
)

func naiveDropDuplicateEndmodule(src string) (string, bool) {
	closes := len(endmoduleTokenRe.FindAllStringIndex(src, -1))
	opens := len(moduleTokenRe.FindAllStringIndex(src, -1))
	if closes <= opens || closes <= 1 {
		return src, false
	}
	// Delete only directly stacked duplicates at the bottom of the file
	// ("endmodule\nendmodule"), the shape LLM output actually produces.
	// An interior surplus endmodule is a real structural error the agent
	// should get to see.
	lines := strings.Split(src, "\n")
	surplus := closes - opens
	changed := false
	for i := len(lines) - 1; i >= 1 && surplus > 0; i-- {
		t := strings.TrimSpace(lines[i])
		if t == "" {
			continue
		}
		if t != "endmodule" {
			break
		}
		// previous non-blank line must also be a lone endmodule
		j := i - 1
		for j >= 0 && strings.TrimSpace(lines[j]) == "" {
			j--
		}
		if j < 0 || strings.TrimSpace(lines[j]) != "endmodule" {
			break
		}
		lines = append(lines[:i], lines[i+1:]...)
		surplus--
		changed = true
		i = j + 1 // re-examine from the surviving endmodule
	}
	if !changed {
		return src, false
	}
	return strings.Join(lines, "\n"), true
}

func naiveNormalizeSmartQuotes(src string) (string, bool) {
	replaced := strings.NewReplacer(
		"‘", "'", "’", "'",
		"“", `"`, "”", `"`,
	).Replace(src)
	return replaced, replaced != src
}

func naiveHoistTimescale(src string) (string, bool) {
	lines := strings.Split(src, "\n")
	var directives, rest []string
	inModule := false
	changed := false
	for _, line := range lines {
		t := strings.TrimSpace(line)
		if strings.HasPrefix(t, "module") {
			inModule = true
		}
		if strings.HasPrefix(t, "`timescale") && inModule {
			directives = append(directives, line)
			changed = true
			continue
		}
		rest = append(rest, line)
		if strings.HasPrefix(t, "endmodule") {
			inModule = false
		}
	}
	if !changed {
		return src, false
	}
	return strings.Join(append(directives, rest...), "\n"), true
}

func naiveStripChatProse(src string) (string, bool) {
	lines := strings.Split(src, "\n")
	start := 0
	sawProse := false
	for i, line := range lines {
		t := strings.TrimSpace(line)
		if t == "" {
			continue
		}
		if strings.HasPrefix(t, "module") || strings.HasPrefix(t, "`") ||
			strings.HasPrefix(t, "//") || strings.HasPrefix(t, "/*") {
			start = i
			break
		}
		sawProse = true
		start = -1
	}
	if start <= 0 || !sawProse {
		return src, false
	}
	return strings.Join(lines[start:], "\n"), true
}

var fixerEdgeCases = []string{
	"",
	"module top_module(input a, output y);\n\tassign y = a;\nendmodule\nendmodule\n",
	"module top_module(input a, output y);\nendmodule\n\n  \nendmodule\n\t\nendmodule",
	"module a(); endmodule\nmodule b(); endmodule\nendmodule\nendmodule",
	"module m();\nendmodule\r\nendmodule\r\n",
	"module m(); wire top_module_x, endmodule_y, module_z; endmodule\nendmodule",
	"moduleé(); endmodule\nendmoduleλ\nendmodule\nendmodule",
	"λmodule(); éendmodule\nendmodule\nendmodule",
	"modulemodule endmoduleendmodule\nendmodule\nendmodule",
	"module m(); assign s = ‘a’ + “b”; // don’t\nendmodule",
	"module m();\n`timescale 1ns/1ps\n\t`timescale 1ps/1ps\nendmodule\n`timescale 1ns/1ns\nmodule n();\r\n`timescale 1ns/1ps\r\nendmodule",
	"`timescale 1ns/1ps\nmodule m(); endmodule",
	"module m();\n`timescale\t1ns/1ps\nendmodule",
	"Sure! Here is the code:\n\nmodule m(); endmodule\n",
	"\n\n  \nmodule m(); endmodule",
	"prose only\nand more prose\n",
	"prose\n",
	"\n",
	"prose\n// comment\nmodule m(); endmodule",
	"prose\n\t/* block */\nmodule m(); endmodule",
}

// fixerInputs returns every dataset reference, llm.Generate samples of
// each (which carry the fences, prose, timescales and stacked endmodules
// the pre-fixer cleans) at several seeds, and the edge cases, each also
// with CRLF line endings.
func fixerInputs() []string {
	var in []string
	for _, s := range []dataset.Suite{dataset.SuiteMachine, dataset.SuiteHuman, dataset.SuiteRTLLM} {
		for i, p := range dataset.Problems(s) {
			in = append(in, p.RefSource)
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed*104729 + int64(i)))
				rates := llm.RatesFor(string(p.Suite), string(p.Difficulty))
				in = append(in, llm.Generate(p.RefSource, rates, rng).Code)
				broken := llm.GenRates{SyntaxGivenFail: 1, LogicOKGivenSyntax: 0.5, TwoErrors: 0.5}
				in = append(in, llm.Generate(p.RefSource, broken, rng).Code)
			}
		}
	}
	for _, e := range fixerEdgeCases {
		in = append(in, e, strings.ReplaceAll(e, "\n", "\r\n"))
	}
	return in
}

func TestFixerRulesDifferential(t *testing.T) {
	inputs := fixerInputs()
	if len(inputs) < 314*7 {
		t.Fatalf("only %d inputs", len(inputs))
	}
	rules := []struct {
		name        string
		fast, naive func(string) (string, bool)
	}{
		{"drop-duplicate-endmodule", fixer.DropDuplicateEndmodule, naiveDropDuplicateEndmodule},
		{"normalize-smart-quotes", fixer.NormalizeSmartQuotes, naiveNormalizeSmartQuotes},
		{"hoist-timescale", fixer.HoistTimescale, naiveHoistTimescale},
		{"strip-chat-prose", fixer.StripChatProse, naiveStripChatProse},
	}
	fired := map[string]int{}
	for _, src := range inputs {
		for _, r := range rules {
			got, gotOK := r.fast(src)
			want, wantOK := r.naive(src)
			if got != want || gotOK != wantOK {
				t.Fatalf("%s differs on %q:\n got %v %q\nwant %v %q", r.name, src, gotOK, got, wantOK, want)
			}
			if gotOK {
				fired[r.name]++
			}
		}
	}
	for _, r := range rules {
		if fired[r.name] == 0 {
			t.Errorf("%s never fired: the inputs do not exercise it", r.name)
		}
	}
}
