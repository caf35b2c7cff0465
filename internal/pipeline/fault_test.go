package pipeline

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/resilience"
)

// panicEvery returns a FixFunc that panics on jobs whose index is a
// multiple of n and otherwise behaves like synthFix.
func panicEvery(n int) FixFunc {
	return func(ctx context.Context, j Job) *agent.Transcript {
		if j.Index%n == 0 {
			panic("boom on job")
		}
		return synthFix(ctx, j)
	}
}

// TestPanicIsolatedDirectPath: a panicking job yields a Result carrying
// a *resilience.PanicError; every other job in the batch runs normally
// and the pool survives to drain the whole queue.
func TestPanicIsolatedDirectPath(t *testing.T) {
	jobs := makeJobs(12, 3)
	results, err := Run(context.Background(), Config{Workers: 4}, jobs, panicEvery(4))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if i%4 == 0 {
			var pe *resilience.PanicError
			if !errors.As(r.Err, &pe) {
				t.Fatalf("job %d: err = %v, want PanicError", i, r.Err)
			}
			if pe.Site != "pipeline.job" || len(pe.Stack) == 0 {
				t.Fatalf("job %d: panic error missing site/stack: %+v", i, pe)
			}
			if r.Transcript != nil {
				t.Fatalf("job %d: transcript present on panicked job", i)
			}
			continue
		}
		if r.Err != nil || r.Transcript == nil {
			t.Fatalf("job %d: healthy job got err=%v tr=%v", i, r.Err, r.Transcript)
		}
	}
}

// TestPanicIsolatedTimeoutPath: the same isolation holds on the
// JobTimeout goroutine path — the panic arrives as the job's outcome,
// not a deadline error, and not a crash.
func TestPanicIsolatedTimeoutPath(t *testing.T) {
	jobs := makeJobs(6, 2)
	cfg := Config{Workers: 2, JobTimeout: 5 * time.Second}
	results, err := Run(context.Background(), cfg, jobs, panicEvery(3))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if i%3 == 0 {
			var pe *resilience.PanicError
			if !errors.As(r.Err, &pe) {
				t.Fatalf("job %d: err = %v, want PanicError", i, r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
	}
}
