// Package resilience holds the failure-survival primitives for the
// serving spine: bounded retry with exponential backoff and full
// jitter (plus per-request retry budgets), a per-configuration circuit
// breaker with half-open probes, panic capture that converts a
// panicking worker into a typed error, and wall-clock/step watchdogs
// that cancel runaway simulations.
//
// The package is deliberately leaf-level (stdlib only) so every layer —
// agent, sim, pipeline, server — can depend on it without
// cycles. Policy lives here; *where* faults appear is internal/fault's
// business, and *what degrades* is each layer's (see DESIGN.md §13 for
// the degradation ladder).
package resilience

import "errors"

// transientError marks an error as retryable. Retry policies only
// re-attempt transient errors; everything else fails fast.
type transientError struct{ err error }

func (e *transientError) Error() string { return "transient: " + e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// MarkTransient wraps err as retryable. A nil err stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether any error in the chain was marked
// transient.
func IsTransient(err error) bool {
	var te *transientError
	return errors.As(err, &te)
}
