// Package resilience holds the failure-survival primitives for the
// serving spine: panic capture that converts a panicking worker, handler
// or best-effort feature into a typed error (recover.go), and
// wall-clock/step watchdogs that cancel runaway simulations
// (watchdog.go).
//
// The package is deliberately leaf-level (stdlib only) so every layer —
// agent, sim, pipeline, server — can depend on it without cycles.
// *Where* faults appear is internal/fault's business, and *what
// degrades* is each layer's (see DESIGN.md §13 for the degradation
// ladder).
package resilience

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// PanicError is a recovered panic converted into an error: the serving
// layers isolate panics (a panicking agent run or handler becomes a
// typed 500 and a counter; the daemon stays up) and this type carries
// the evidence — where, what, and the stack at the recover site.
type PanicError struct {
	Site  string // which guard recovered it, e.g. "pipeline.job"
	Value any    // the value passed to panic()
	Stack []byte // debug.Stack() captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic in %s: %v", e.Site, e.Value)
}

// Recovered wraps a recover() value into a *PanicError with the current
// stack. Call it only from a deferred function while panicking.
func Recovered(site string, v any) *PanicError {
	return &PanicError{Site: site, Value: v, Stack: debug.Stack()}
}

// AsPanic extracts a *PanicError from err's chain, if any.
func AsPanic(err error) (*PanicError, bool) {
	var pe *PanicError
	ok := errors.As(err, &pe)
	return pe, ok
}

// Safe runs fn, converting a panic into a returned *PanicError. It is
// the guard for best-effort features (analyzer, sim check) that must
// never be request-fatal: on panic the feature's output is simply
// absent.
func Safe(site string, fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = Recovered(site, r)
		}
	}()
	fn()
	return nil
}
