package llm

// Benchmarks and pins for the model's read of a candidate: the blind
// scan, the log analysis, and a whole Repair call, each over the
// differential inputs of textscan_test.go.

import (
	"fmt"
	"go/parser"
	"go/token"
	"hash/fnv"
	"math"
	"strconv"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/diag"
)

// TestReadPathImportsNoRegexp keeps the model's read of a candidate and
// of its compiler log on the byte matchers of scan.go.
func TestReadPathImportsNoRegexp(t *testing.T) {
	fset := token.NewFileSet()
	for _, name := range []string{"blind.go", "loganalysis.go", "scan.go"} {
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "regexp" {
				t.Errorf("%s imports regexp", name)
			}
		}
	}
}

// blindAllocsPerCall is the mean allocation count of one BlindHypotheses
// call over textScanInputs, measured at 5.0 (go1.24, amd64), plus
// headroom. The regexp read it replaced made 24.
const blindAllocsPerCall = 5.5

func TestBlindHypothesesAllocs(t *testing.T) {
	inputs := textScanInputs(t)
	allocs := testing.AllocsPerRun(3, func() {
		for _, code := range inputs {
			BlindHypotheses(code)
		}
	}) / float64(len(inputs))
	if allocs > blindAllocsPerCall {
		t.Fatalf("BlindHypotheses makes %.2f allocations per call, pinned at %.1f", allocs, blindAllocsPerCall)
	}
}

// TestAptitudeMatchesFmt holds aptitude to the fmt.Fprintf form it
// replaced, over seeds of every size and sign, every category and every
// persona (including names longer than aptitude's buffer).
func TestAptitudeMatchesFmt(t *testing.T) {
	seeds := []int64{0, 1, -1, 7, -7, 2654435761, -2654435761, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for s := int64(1); s < 1<<62; s *= 3 {
		seeds = append(seeds, s, -s, s*2654435761+1)
	}
	cats := append(diag.Categories(), diag.CatNone, -1, 1<<40)
	personas := []Persona{GPT35(), GPT4(), {Name: ""}, {Name: "a persona whose name runs well past the stack buffer λ"}}
	for _, p := range personas {
		m := NewModel(p, 1)
		for _, seed := range seeds {
			for _, cat := range cats {
				h := fnv.New64a()
				fmt.Fprintf(h, "%d|%d|%s", seed, cat, p.Name)
				want := float64(h.Sum64()%1_000_000) / 1_000_000
				if got := m.aptitude(seed, cat); got != want {
					t.Fatalf("aptitude(%d, %d) for %q = %v, fmt form %v", seed, cat, p.Name, got, want)
				}
			}
		}
	}
}

var (
	textScanLogsOnce sync.Once
	textScanLogList  []string
)

// textScanLogs returns the Quartus, iverilog and Simple log of every
// differential input, in input order, followed by the hand-written log
// edge cases.
func textScanLogs(t testing.TB) []string {
	t.Helper()
	inputs := textScanInputs(t)
	textScanLogsOnce.Do(func() {
		for _, code := range inputs {
			for _, c := range []compiler.Compiler{compiler.Quartus{}, compiler.IVerilog{}, compiler.Simple{}} {
				textScanLogList = append(textScanLogList, c.Compile("main.v", code).Log)
			}
		}
		textScanLogList = append(textScanLogList, logEdgeCases...)
	})
	return textScanLogList
}

func BenchmarkBlindHypotheses(b *testing.B) {
	inputs := textScanInputs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BlindHypotheses(inputs[i%len(inputs)])
	}
}

func BenchmarkAnalyzeLog(b *testing.B) {
	logs := textScanLogs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AnalyzeLog(logs[i%len(logs)])
	}
}

// BenchmarkModelRepair runs one Repair per differential input, with the
// input's logs as feedback in turn (Quartus, iverilog, Simple).
func BenchmarkModelRepair(b *testing.B) {
	inputs := textScanInputs(b)
	logs := textScanLogs(b)
	m := NewModel(GPT35(), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % (3 * len(inputs))
		m.Repair(RepairRequest{
			Code: inputs[k/3], Feedback: logs[k], Thought: true,
			SampleSeed: int64(k), Iteration: i % 10,
		})
	}
}
