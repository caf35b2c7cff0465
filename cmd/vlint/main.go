// Command vlint exposes the Verilog compiler frontend as a standalone
// lint tool: it parses and elaborates one or more source files, runs the
// semantic analysis rules (internal/analyze), and prints diagnostics in
// the chosen persona's log dialect (iverilog-style terse logs,
// Quartus-style coded logs, or the raw structured diagnostics).
//
// Usage:
//
//	vlint file.v [file2.v ...]        # quartus-style logs (default)
//	vlint -style iverilog file.v
//	vlint -style raw file.v           # structured category-tagged output
//	vlint -rules list                 # print the analyzer rule catalogue
//	vlint -rules L001,alias-hazard f.v  # run only the named rules
//	vlint -severity all=error f.v     # escalate findings (affects exit code)
//	vlint -json file.v                # machine-readable report
//	vlint -print file.v               # print the parsed AST back as Verilog
//	vlint -coverage file.v            # also simulate; toggle coverage to stderr
//	vlint -vcd out.vcd file.v         # also simulate; write the waveform dump
//
// Exit status is non-zero when any file fails to compile or carries an
// error-severity finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analyze"
	"repro/internal/compiler"
	"repro/internal/diag"
	"repro/internal/sema"
	"repro/internal/sim"
	"repro/internal/verilog"
	"repro/internal/wave"
)

// jsonPos mirrors diag.Pos with stable lowercase keys.
type jsonPos struct {
	Line int `json:"line"`
	Col  int `json:"col"`
}

// jsonFinding is one diagnostic in -json output. Frontend diagnostics
// have an empty rule; analyzer findings carry their L-code.
type jsonFinding struct {
	Rule     string    `json:"rule,omitempty"`
	Severity string    `json:"severity"`
	Category string    `json:"category"`
	Line     int       `json:"line"`
	Col      int       `json:"col"`
	Symbol   string    `json:"symbol,omitempty"`
	Message  string    `json:"message"`
	Related  []jsonPos `json:"related,omitempty"`
}

// jsonReport is the per-file object in -json output.
type jsonReport struct {
	File     string        `json:"file"`
	Ok       bool          `json:"ok"`
	Findings []jsonFinding `json:"findings"`
}

func main() {
	style := flag.String("style", "quartus", "log dialect: quartus, iverilog, or raw")
	doPrint := flag.Bool("print", false, "pretty-print the parsed source instead of linting")
	rules := flag.String("rules", "", "comma-separated analyzer rules to run (codes or names; empty = all; 'list' prints the catalogue; 'none' disables the analyzer)")
	severity := flag.String("severity", "", "comma-separated severity overrides, e.g. 'all=error' or 'L001=error,unused-signal=warning'")
	asJSON := flag.Bool("json", false, "emit one JSON array of per-file reports (frontend diagnostics + analyzer findings)")
	coverage := flag.Bool("coverage", false, "simulate each elaborable file briefly and print its toggle-coverage summary to stderr")
	vcdOut := flag.String("vcd", "", "simulate each elaborable file briefly and write a VCD waveform dump to this path (multi-file runs append the file index)")
	flag.Parse()

	if *rules == "list" {
		for _, r := range analyze.Rules() {
			fmt.Printf("%s  %-24s %-8s %s\n", r.Code, r.Name, r.Severity, r.Doc)
		}
		return
	}

	opts, runAnalyzer, err := analyzerOptions(*rules, *severity)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vlint: %v\n", err)
		os.Exit(2)
	}

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: vlint [-style quartus|iverilog|raw] [-rules ...] [-severity ...] [-json] [-print] file.v ...")
		os.Exit(2)
	}

	failed := false
	var reports []jsonReport
	for i, name := range flag.Args() {
		data, err := os.ReadFile(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vlint: %v\n", err)
			os.Exit(1)
		}
		src := string(data)

		if *doPrint {
			file, diags := verilog.Parse(src)
			if diags.HasErrors() {
				fmt.Fprintf(os.Stderr, "vlint: %s has parse errors; printing best-effort AST\n", name)
				failed = true
			}
			fmt.Print(verilog.Format(file))
			continue
		}

		file, design, diags := compiler.Frontend(src)
		var findings diag.List
		if runAnalyzer {
			findings = analyze.Run(file, design, opts)
		}
		if findings.HasErrors() {
			failed = true
		}
		if (*coverage || *vcdOut != "") && design != nil {
			if err := observeRun(os.Stderr, name, src, design, *coverage, vcdPath(*vcdOut, i, flag.NArg())); err != nil {
				fmt.Fprintf(os.Stderr, "vlint: %v\n", err)
				os.Exit(1)
			}
		}

		if *asJSON {
			reports = append(reports, buildReport(name, design, diags, findings))
			if design == nil || diags.HasErrors() {
				failed = true
			}
			continue
		}

		switch *style {
		case "raw":
			all := append(append(diag.List{}, diags...), findings...)
			all.SortByPos()
			for _, d := range all {
				rule := ""
				if d.Rule != "" {
					rule = d.Rule + " "
				}
				fmt.Printf("%s:%s: %s[%s%s] %s\n", name, d.Pos, d.Severity, rule, d.Category, d.Message)
				for _, rp := range d.Related {
					fmt.Printf("%s:%s: note: related to the finding above\n", name, rp)
				}
			}
			if design == nil {
				failed = true
			} else if len(all) == 0 {
				fmt.Printf("%s: clean\n", name)
			}
		default:
			comp, ok := compiler.ByName(*style)
			if !ok {
				fmt.Fprintf(os.Stderr, "vlint: unknown style %q\n", *style)
				os.Exit(2)
			}
			res := comp.Compile(name, src)
			// Every persona now emits a non-empty log on success too, so
			// the log is the whole report.
			fmt.Print(res.Log)
			fmt.Print(analyze.RenderText(name, findings))
			if !res.Ok {
				failed = true
			}
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintf(os.Stderr, "vlint: %v\n", err)
			os.Exit(1)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// observeRun is the -coverage/-vcd dynamic pass: simulate the design
// for a few cycles through the differential path with wave observers
// attached, under the path's fixed watchdog budget (sim.CheckWall).
// Best-effort — designs the sim frontend rejects, and runs the watchdog
// stops, are reported to w and skipped, never failing the lint. The
// error is a failed -vcd write.
func observeRun(w io.Writer, name, src string, design *sema.Design, wantCov bool, vcdFile string) error {
	var cov *wave.Coverage
	var rec *wave.Recorder
	if wantCov {
		cov = wave.NewCoverage()
	}
	if vcdFile != "" {
		rec = wave.NewRecorder(0) // unbounded: dump the whole run
	}
	if _, err := sim.DiffSource(src, sim.DiffConfig{
		Clock:    sim.ClockInput(design),
		Cycles:   8,
		Seed:     1,
		Coverage: cov,
		Recorder: rec,
	}); err != nil {
		fmt.Fprintf(w, "vlint: %s: simulation skipped: %v\n", name, err)
		return nil
	}
	if cov != nil {
		fmt.Fprintf(w, "vlint: %s: %s\n", name, cov.Stats())
	}
	if rec != nil {
		return os.WriteFile(vcdFile, []byte(rec.VCD()), 0o644)
	}
	return nil
}

// vcdPath derives the per-file -vcd output path: the path as given for
// single-file runs, path with a .N index suffix before the extension
// for multi-file runs.
func vcdPath(out string, i, n int) string {
	if out == "" || n == 1 {
		return out
	}
	ext := ".vcd"
	base := strings.TrimSuffix(out, ext)
	if base == out {
		ext = ""
	}
	return fmt.Sprintf("%s.%d%s", base, i, ext)
}

// analyzerOptions validates -rules/-severity into analyze.Options.
// runAnalyzer is false when -rules is "none".
func analyzerOptions(rules, severity string) (opts analyze.Options, runAnalyzer bool, err error) {
	runAnalyzer = true
	if rules == "none" {
		return opts, false, nil
	}
	if rules != "" {
		names := splitList(rules)
		if _, err := analyze.ResolveRules(names); err != nil {
			return opts, false, err
		}
		opts.Rules = names
	}
	if severity != "" {
		opts.Severity = map[string]diag.Severity{}
		for _, kv := range splitList(severity) {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return opts, false, fmt.Errorf("bad -severity entry %q (want rule=level)", kv)
			}
			var sev diag.Severity
			switch val {
			case "warning":
				sev = diag.SeverityWarning
			case "error":
				sev = diag.SeverityError
			default:
				return opts, false, fmt.Errorf("bad severity level %q (want warning or error)", val)
			}
			if key != "all" {
				if _, ok := analyze.RuleByName(key); !ok {
					return opts, false, fmt.Errorf("unknown rule %q in -severity", key)
				}
			}
			opts.Severity[key] = sev
		}
	}
	return opts, runAnalyzer, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// buildReport merges frontend diagnostics and analyzer findings into the
// stable -json shape, sorted by position.
func buildReport(name string, design *sema.Design, diags, findings diag.List) jsonReport {
	all := append(append(diag.List{}, diags...), findings...)
	all.SortByPos()
	rep := jsonReport{
		File:     name,
		Ok:       design != nil && !diags.HasErrors(),
		Findings: []jsonFinding{},
	}
	for _, d := range all {
		f := jsonFinding{
			Rule:     d.Rule,
			Severity: d.Severity.String(),
			Category: d.Category.String(),
			Line:     d.Pos.Line,
			Col:      d.Pos.Col,
			Symbol:   d.Symbol,
			Message:  d.Message,
		}
		for _, rp := range d.Related {
			f.Related = append(f.Related, jsonPos{Line: rp.Line, Col: rp.Col})
		}
		rep.Findings = append(rep.Findings, f)
	}
	return rep
}
