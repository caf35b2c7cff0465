package llm

// Differential oracle for the model's textual read. The naive* functions
// below are the earlier regex implementations of BlindHypotheses,
// declaredNames, countWord, repairCStyle and headerHasSignal, kept
// verbatim (the one substitution: the naive read counts "end" with the
// regex counter instead of the byte scanner it used, so the oracle shares
// no scanning code with what it checks). They compile their patterns per
// call and scan every line; the package's versions compile once and skip
// lines that lack a literal every match needs. Both must agree on every
// input.

import (
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/diag"
	"repro/internal/fixer"
)

func naiveBlindHypotheses(code string) []Hypothesis {
	var out []Hypothesis
	lines := strings.Split(code, "\n")

	inModule := false
	beginDepth := 0
	sawEndmodule := false
	declaredRanges := map[string]int{}
	declRe := regexp.MustCompile(`\[(\d+):0\]\s*([A-Za-z_][A-Za-z0-9_]*)`)
	idxRe := regexp.MustCompile(`([A-Za-z_][A-Za-z0-9_]*)\[(\d+)\]`)

	for i, raw := range lines {
		t := strings.TrimSpace(raw)
		lineNo := i + 1
		if strings.HasPrefix(t, "module") {
			inModule = true
		}
		if strings.HasPrefix(t, "endmodule") {
			sawEndmodule = true
			inModule = false
		}
		beginDepth += strings.Count(" "+t+" ", " begin")
		if naiveCountWord(t, "end") > 0 {
			beginDepth -= naiveCountWord(t, "end")
		}
		for _, m := range declRe.FindAllStringSubmatch(t, -1) {
			var msb int
			if _, err := sscanInt(m[1], &msb); err == nil {
				declaredRanges[m[2]] = msb
			}
		}

		// C idioms are the most visually obvious defects.
		if strings.Contains(t, "++") || strings.Contains(t, "--") ||
			compoundAssignRe.MatchString(t) {
			out = append(out, Hypothesis{
				Line: lineNo, Category: diag.CatCStyleSyntax,
				Confidence: 0.72, Excerpt: t,
			})
		}
		if strings.HasSuffix(t, "{") && (strings.Contains(t, ")") || strings.Contains(t, "else")) {
			out = append(out, Hypothesis{
				Line: lineNo, Category: diag.CatCStyleSyntax,
				Confidence: 0.6, Excerpt: t,
			})
		}
		// Directives inside a module body stand out.
		if inModule && strings.HasPrefix(t, "`") && !strings.HasPrefix(t, "`timescale 1ps") {
			if !strings.HasPrefix(t, "module") {
				out = append(out, Hypothesis{
					Line: lineNo, Category: diag.CatMisplacedDirective,
					Confidence: 0.65, Excerpt: t,
				})
			}
		}
		// An always with no '@' reads wrong immediately.
		if strings.Contains(t, "always") && !strings.Contains(t, "@") {
			out = append(out, Hypothesis{
				Line: lineNo, Category: diag.CatSensitivityList,
				Confidence: 0.6, Excerpt: t,
			})
		}
		// Unterminated statement lines: a careful reader notices a missing
		// semicolon, with moderate reliability.
		if looksUnterminated(t, lines, i) {
			out = append(out, Hypothesis{
				Line: lineNo + 1, Category: diag.CatMissingSemicolon,
				Confidence: 0.45, Excerpt: t,
			})
		}
		// Bad digits in literals.
		if m := badLiteralRe.FindString(t); m != "" {
			out = append(out, Hypothesis{
				Line: lineNo, Category: diag.CatMalformedLiteral,
				Confidence: 0.55, Excerpt: t,
			})
		}
		// Reserved word declared as a signal.
		if keywordDeclRe.MatchString(t) {
			out = append(out, Hypothesis{
				Line: lineNo, Category: diag.CatKeywordAsIdent,
				Confidence: 0.5, Excerpt: t,
			})
		}
		// Constant index beyond a [N:0] declaration seen earlier.
		for _, m := range idxRe.FindAllStringSubmatch(t, -1) {
			msb, ok := declaredRanges[m[1]]
			if !ok {
				continue
			}
			var v int
			if _, err := sscanInt(m[2], &v); err == nil && v > msb {
				out = append(out, Hypothesis{
					Line: lineNo, Category: diag.CatIndexOutOfRange,
					Symbol: m[1], Confidence: 0.35,
					Excerpt: t + " // index " + m[2] + " vs [" + itoa(msb) + ":0]",
				})
			}
		}
	}

	// Structural balance.
	if beginDepth > 0 {
		out = append(out, Hypothesis{
			Line: len(lines), Category: diag.CatUnmatchedBeginEnd,
			Confidence: 0.5, Excerpt: "begin/end imbalance",
		})
	}
	if !sawEndmodule && strings.Contains(code, "module") {
		out = append(out, Hypothesis{
			Line: len(lines), Category: diag.CatMissingEndmodule,
			Confidence: 0.7, Excerpt: "file ends without endmodule",
		})
	}

	// Signals driven in always blocks but not declared reg: needs
	// cross-referencing, so lower confidence.
	out = append(out, naiveBlindLValueScan(code, lines)...)
	// posedge of a signal that is not in any declaration.
	out = append(out, naiveBlindUndeclaredScan(code, lines)...)
	return out
}

func naiveBlindLValueScan(code string, lines []string) []Hypothesis {
	var out []Hypothesis
	regDecl := map[string]bool{}
	outPlain := map[string]int{} // output (non-reg) name -> decl line
	for i, raw := range lines {
		t := strings.TrimSpace(raw)
		if m := regexp.MustCompile(`\breg\b[^;]*?\b([A-Za-z_][A-Za-z0-9_]*)`).FindStringSubmatch(t); m != nil {
			regDecl[m[1]] = true
		}
		if strings.Contains(t, "output") && !strings.Contains(t, "reg") {
			noRange := regexp.MustCompile(`\[[^\]]*\]`).ReplaceAllString(t, "")
			for _, w := range anyIdentRe.FindAllString(noRange, -1) {
				if w != "output" && w != "wire" && w != "signed" && w != "input" {
					outPlain[w] = i + 1
				}
			}
		}
	}
	inAlways := false
	for _, raw := range lines {
		t := strings.TrimSpace(raw)
		if strings.Contains(t, "always") {
			inAlways = true
		}
		if strings.HasPrefix(t, "assign") {
			inAlways = false
			// assign driving a reg?
			if m := alwaysTargetRe.FindStringSubmatch(strings.TrimPrefix(t, "assign ")); m != nil && regDecl[m[1]] {
				out = append(out, Hypothesis{
					Category: diag.CatAssignToReg, Symbol: m[1],
					Confidence: 0.35, Excerpt: t,
				})
			}
			continue
		}
		if !inAlways {
			continue
		}
		if m := alwaysTargetRe.FindStringSubmatch(t); m != nil {
			if declLine, isPlainOut := outPlain[m[1]]; isPlainOut && !regDecl[m[1]] {
				out = append(out, Hypothesis{
					Line: declLine, Category: diag.CatInvalidLValue, Symbol: m[1],
					Confidence: 0.38, Excerpt: t,
				})
			}
		}
	}
	return out
}

func naiveBlindUndeclaredScan(code string, lines []string) []Hypothesis {
	declared := map[string]bool{}
	for _, n := range naiveDeclaredNames(code) {
		declared[n] = true
	}
	var out []Hypothesis
	for i, raw := range lines {
		for _, m := range edgeUseRe.FindAllStringSubmatch(raw, -1) {
			if !declared[m[2]] {
				out = append(out, Hypothesis{
					Line: i + 1, Category: diag.CatUndeclaredIdent, Symbol: m[2],
					Confidence: 0.4, Excerpt: strings.TrimSpace(raw),
				})
			}
		}
	}
	return out
}

func naiveDeclaredNames(code string) []string {
	seen := map[string]bool{}
	var out []string
	for _, line := range splitLines(code) {
		t := strings.TrimSpace(line)
		if !strings.HasPrefix(t, "input") && !strings.HasPrefix(t, "output") &&
			!strings.HasPrefix(t, "inout") && !strings.HasPrefix(t, "wire") &&
			!strings.HasPrefix(t, "reg") && !strings.HasPrefix(t, "integer") &&
			!strings.HasPrefix(t, "logic") {
			continue
		}
		// Strip the range, then every identifier that is not a keyword is
		// a declared name.
		noRange := regexp.MustCompile(`\[[^\]]*\]`).ReplaceAllString(t, "")
		for _, w := range anyIdentRe.FindAllString(noRange, -1) {
			switch w {
			case "input", "output", "inout", "wire", "reg", "logic",
				"integer", "signed":
				continue
			}
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
	}
	return out
}

func naiveCountWord(code, word string) int {
	re := regexp.MustCompile(`\b` + word + `\b`)
	return len(re.FindAllString(code, -1))
}

func naiveRepairCStyle(code string, h Hypothesis) Outcome {
	lines := splitLines(code)
	li := lineAt(lines, h.Line)
	// Scan the flagged line first, then the whole file — C idioms travel
	// in groups, and one compile round should clear them all.
	changed := false
	for i := range lines {
		orig := lines[i]
		lines[i] = incRe.ReplaceAllString(lines[i], "$1 = $1 + 1")
		lines[i] = decRe.ReplaceAllString(lines[i], "$1 = $1 - 1")
		lines[i] = compoundRe.ReplaceAllString(lines[i], "$1 = $1 $2 ")
		if lines[i] != orig {
			changed = true
		}
	}
	// Brace blocks: '{' at line end after ')' or else -> begin, matching
	// lone '}' -> end.
	for i := range lines {
		t := strings.TrimRight(lines[i], " \t")
		if strings.HasSuffix(t, "{") && (strings.Contains(t, ")") || strings.Contains(t, "else")) {
			lines[i] = strings.TrimSuffix(t, "{") + "begin"
			changed = true
			depth := 1
			for j := i + 1; j < len(lines); j++ {
				tj := strings.TrimSpace(lines[j])
				if strings.HasSuffix(strings.TrimRight(lines[j], " \t"), "{") {
					depth++
				}
				if tj == "}" {
					depth--
					if depth == 0 {
						lines[j] = strings.Replace(lines[j], "}", "end", 1)
						break
					}
				}
			}
		}
	}
	if !changed {
		return failed(code, "no C-style construct found to rewrite")
	}
	_ = li
	return Outcome{
		Code: strings.Join(lines, "\n"), Applied: true, StructDifficulty: 0.18,
		Note: "rewrote C-style operators/blocks into Verilog syntax",
	}
}

func naiveHeaderHasSignal(code, name string) bool {
	return regexp.MustCompile(`\binput\b[^;\n)]*\b` + regexp.QuoteMeta(name) + `\b`).MatchString(code)
}

// textScanEdgeCases are hand-written inputs aimed at the fast paths'
// guards and at the byte-level word scanner.
var textScanEdgeCases = []string{
	"",
	"\n\n",
	"module top_module(input clk, input [7:0] d, output [7:0] q);\n\talways @(posedge clk) q <= d;\nendmodule\nendmodule\n",
	"module top_module (\n\tinput clk,\n\toutput reg [3:0] q\n);\nendmodule\n\n\nendmodule\n   \nendmodule",
	"module m(input clk, output [3:0] y);\n\treg [7:0] regfile [0:3];\n\treg [1:0] regfile_q;\n\tassign y = regfile[2][3:0];\n\talways @(posedge clk) regfile_q <= regfile_q + 1;\n\tassign regfile_q = 2'b01;\nendmodule",
	"module m(input a, output y); // don't 8'b102 here\n\tassign y = 4'hzz; // it's 4'b12\n\t/* 'q' */ wire w;\nendmodule",
	"module m(input a, output y);\n\tassign y = a;\néend λbegin beginé moduleé endmoduleλ ‘begin’ “end”\nendmoduleé\n",
	"module λ(input é, output y);\n\tbegin\nendmodule",
	"module m(input clk, input a, output reg y);\r\n\talways @(posedge clk) begin\r\n\t\ty <= a;\r\n\tend\r\nendmodule\r\n",
	"module m(input clk, output reg [7:0] c);\n\tinteger i;\n\talways @(posedge clk) {\n\t\tc++;\n\t\ti--;\n\t\tc += 8'd2;\n\t\tc ^= c;\n\t\tc <= c|=1;\n\t}\n\tif (a) {\n\t\tc -=1; }\n\telse {\n\t}\nendmodule",
	"module m(input [3:0] a, output [3:0] y);\n\twire [3:0] t;\n\tassign y = a[7] ^ t[4] ^ t[ 3 ] ^ a[0:0][5];\n\treg case;\n\twire end;\n\t`define X 1\n\t`timescale 1ns/1ps\n\t`timescale 1ps/1ps\nendmodule",
	"module m(output y, output wire signed [3:0] z);\n\talways @(*) begin\n\t\ty = 1;\n\t\tz[1] <= 0;\n\tend\n\tassign q = 1;\nendmodule",
	"module m(input rst);\n\talways @(posedge clk or negedge rst_n) begin\nendmodule",
	"module m(input clk_en, input wire\n clk);\n\talways\n\t\tq <= 1\n\tassign x = y\nendmodule",
	"modulemodule endmoduleendmodule begin_end end_begin _end end_ 0end end0 begin\tend\nbegin;end",
	"\xff\xfebegin\xffend\xc3module\xc3",
	"reg;reg x; reg[3:0]y;regz output[1]o; output reg [3:0] o2; outputs",
	"always @(posedge clk) x += 1; y-=2 ; z*=3; w/=4; v&=5; u|=6; t^=7; s==1; r!=2; q<=3; p>=4",
	"a++ b-- ++c --d a+ +b a- -b i++++ j----",
	"input clk\ninput [3:0] clk;\ninput clkx, clk_b; input a, clk)",
	"  begin begin begin\n end",
	"module m(input [7:0]a, output y);\n\twire [3:0]t;\n\twire [3:0]\tu;\n\tassign y = t[4] ^ u[9] ^ a[8];\nendmodule",
	"module m(input a);\n\talways @(negedge rst_n) q <= a;\n\treg\tcase;\n\twire\tbegin ;\nendmodule",
	"module m(input a, output\treg[1:0] o);\n\treg\tq;\n\tassign q = a;\n\tassign o = {a, a};\nendmodule",
}

var (
	textScanOnce   sync.Once
	textScanCorpus []string
)

// textScanInputs returns the differential inputs: every dataset
// reference, llm.Generate samples of each reference at several seeds
// (under the suite's calibrated rates and under syntax-error-only
// rates), and the hand-written edge cases.
func textScanInputs(t testing.TB) []string {
	t.Helper()
	textScanOnce.Do(func() {
		refs := 0
		for _, s := range []dataset.Suite{dataset.SuiteMachine, dataset.SuiteHuman, dataset.SuiteRTLLM} {
			for _, p := range dataset.Problems(s) {
				refs++
				textScanCorpus = append(textScanCorpus, p.RefSource)
				for seed := int64(1); seed <= 3; seed++ {
					rng := rand.New(rand.NewSource(seed*7919 + int64(refs)))
					rates := RatesFor(string(p.Suite), string(p.Difficulty))
					textScanCorpus = append(textScanCorpus, Generate(p.RefSource, rates, rng).Code)
					broken := GenRates{SyntaxGivenFail: 1, LogicOKGivenSyntax: 0.5, TwoErrors: 0.5}
					textScanCorpus = append(textScanCorpus, Generate(p.RefSource, broken, rng).Code)
				}
			}
		}
		if refs != 314 {
			panic(fmt.Sprintf("dataset holds %d references, want 314", refs))
		}
		textScanCorpus = append(textScanCorpus, textScanEdgeCases...)
	})
	return textScanCorpus
}

// checkTextScan compares every fast text scan with its naive reference on
// one input.
func checkTextScan(t *testing.T, code string) {
	t.Helper()
	if got, want := BlindHypotheses(code), naiveBlindHypotheses(code); !reflect.DeepEqual(got, want) {
		t.Fatalf("BlindHypotheses differs on %q:\n got %+v\nwant %+v", code, got, want)
	}
	if got, want := declaredNames(splitLines(code)), naiveDeclaredNames(code); !reflect.DeepEqual(got, want) {
		t.Fatalf("declaredNames differs on %q:\n got %q\nwant %q", code, got, want)
	}
	for _, w := range []string{"begin", "end", "module", "endmodule"} {
		if got, want := fixer.WordCount(code, w), naiveCountWord(code, w); got != want {
			t.Fatalf("WordCount(%q) = %d, regex count %d, on %q", w, got, want, code)
		}
	}
	h := Hypothesis{Line: 1, Category: diag.CatCStyleSyntax}
	if got, want := repairCStyle(code, h), naiveRepairCStyle(code, h); got != want {
		t.Fatalf("repairCStyle differs on %q:\n got %+v\nwant %+v", code, got, want)
	}
	if got, want := clkInputRe.MatchString(code), naiveHeaderHasSignal(code, "clk"); got != want {
		t.Fatalf("clk header match = %v, naive %v, on %q", got, want, code)
	}
}

func TestTextScanDifferential(t *testing.T) {
	inputs := textScanInputs(t)
	for _, code := range inputs {
		checkTextScan(t, code)
	}
	for _, code := range textScanEdgeCases {
		checkTextScan(t, strings.ReplaceAll(code, "\n", "\r\n"))
	}
}

func FuzzTextScan(f *testing.F) {
	for _, code := range textScanInputs(f) {
		f.Add(code)
	}
	f.Fuzz(func(t *testing.T, code string) {
		checkTextScan(t, code)
	})
}
