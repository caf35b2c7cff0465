package analyze

import (
	"repro/internal/diag"
	"repro/internal/fault"
	"repro/internal/resilience"
)

// Safe runs one analyzer call behind a panic guard: per the degradation
// ladder, the semantic analyzer is a best-effort feature that must never
// be request-fatal, so a panicking rule (or the injected analyze.panic
// fault, consulted on every call) yields an error and no findings instead
// of unwinding the caller. The agent wraps every observation's findings
// in it; vlint calls Run directly and lets a crash be loud.
func Safe(findings func() diag.List) (out diag.List, err error) {
	err = resilience.Safe("analyze", func() {
		if fault.Hit(fault.AnalyzePanic) {
			panic("fault: injected analyzer panic")
		}
		out = findings()
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
