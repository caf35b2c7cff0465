// Package pipeline is the parallel evaluation layer of the reproduction:
// it fans a batch of (problem, sampleSeed) jobs out over a fixed worker
// pool, runs each through a caller-supplied fix function (normally
// core.RTLFixer.Fix), and aggregates the results deterministically.
//
// Determinism is the central contract. Workers race over the job queue,
// but every result is written back to the slot of its originating job, so
// the returned slice is ordered by job index and is byte-for-byte
// identical regardless of the worker count. The only requirement on the
// fix function is that it is a pure function of its Job (all of
// core.RTLFixer's per-call state — the simulated model's RNG — is derived
// from Job.SampleSeed), which is also what makes it safe to call from
// many goroutines at once.
package pipeline

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/agent"
	"repro/internal/resilience"
	"repro/internal/trace"
)

// Job is one unit of work: a single erroneous source to run through the
// debugging agent.
type Job struct {
	// Index is the job's position in the batch. Run overwrites it with
	// the slice position so results always align with the input order.
	Index int
	// Group buckets jobs for per-problem aggregation (e.g. all repeats of
	// one curated entry share a Group). Summaries compute fix rates and
	// pass@k inputs per group.
	Group int
	// Filename is passed through to the fix function.
	Filename string
	// Code is the erroneous source.
	Code string
	// SampleSeed drives the simulated model, exactly as in
	// core.RTLFixer.Fix.
	SampleSeed int64
}

// FixFunc runs one job and returns its transcript. It must be a pure
// function of the job (no shared mutable state, no ambient randomness):
// that is both the thread-safety and the determinism requirement.
type FixFunc func(ctx context.Context, j Job) *agent.Transcript

// TracedFixer is the slice of core.RTLFixer the pipeline needs
// (declared here rather than importing core, which sits above this
// package).
type TracedFixer interface {
	FixTraced(filename, code string, sampleSeed int64, sp *trace.Span) *agent.Transcript
}

// FixWith adapts a fixer into a FixFunc — the standard way to submit
// agent runs to the pool. The run is recorded under an "agent" child of
// the job's span; without a span in the context (Config.Tracer unset)
// that child is nil, and a nil span is a no-op, so the run is exactly
// core.RTLFixer.Fix.
func FixWith(f TracedFixer) FixFunc {
	return func(ctx context.Context, j Job) *agent.Transcript {
		ag := trace.FromContext(ctx).Child("agent")
		tr := f.FixTraced(j.Filename, j.Code, j.SampleSeed, ag)
		if tr != nil {
			ag.SetBool("success", tr.Success)
			ag.SetInt("iterations", int64(tr.Iterations))
		}
		ag.End()
		return tr
	}
}

// Result pairs a job with its outcome.
type Result struct {
	Job        Job
	Transcript *agent.Transcript
	// Err is non-nil when the job was canceled or timed out before (or
	// while) running, or when it panicked mid-run (a
	// *resilience.PanicError — the worker recovered and kept serving);
	// Transcript is nil in that case.
	Err error
	// Elapsed is the job's wall-clock run time (zero if never started).
	Elapsed time.Duration
}

// Config tunes a pipeline run.
type Config struct {
	// Workers is the pool size; <= 0 means runtime.NumCPU().
	Workers int
	// JobTimeout bounds each job's wall-clock time; 0 means no limit.
	// A timed-out job yields Err == context.DeadlineExceeded. The fix
	// function itself cannot be preempted, so its goroutine is abandoned
	// to finish in the background (agent runs are iteration-bounded, so
	// this is bounded work).
	JobTimeout time.Duration
	// Tracer, when non-nil, collects one trace per job: runOne opens a
	// root "job" span, carries it on the worker's context
	// (trace.NewContext), and ends it when the job finishes or times
	// out. Fix functions that understand spans (FixWith) hang their
	// stage children off it. Nil costs nothing and changes nothing —
	// results are byte-identical with tracing on or off.
	Tracer *trace.Collector
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.NumCPU()
}

// Run executes the batch and returns one result per job, ordered by job
// index. When ctx is canceled mid-batch, jobs not yet started are marked
// with ctx.Err() and Run returns that error alongside the partial results;
// jobs already running are left to finish so their slots are valid.
func Run(ctx context.Context, cfg Config, jobs []Job, fn FixFunc) ([]Result, error) {
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results, ctx.Err()
	}

	queue := make(chan int)
	var wg sync.WaitGroup

	workers := cfg.workers()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range queue {
				results[i] = runOne(ctx, cfg, jobs[i], i, fn)
			}
		}()
	}

	// Feed the queue until the batch is drained or the context dies.
	var runErr error
feed:
	for i := range jobs {
		select {
		case queue <- i:
		case <-ctx.Done():
			runErr = ctx.Err()
			// Mark everything not yet handed to a worker as canceled.
			for j := i; j < len(jobs); j++ {
				jb := jobs[j]
				jb.Index = j
				results[j] = Result{Job: jb, Err: ctx.Err()}
			}
			break feed
		}
	}
	close(queue)
	wg.Wait()
	return results, runErr
}

// runOne executes a single job, applying the per-job timeout.
func runOne(ctx context.Context, cfg Config, j Job, index int, fn FixFunc) Result {
	j.Index = index
	if err := ctx.Err(); err != nil {
		return Result{Job: j, Err: err}
	}
	if cfg.Tracer != nil {
		root := cfg.Tracer.Start("job")
		root.SetStr("filename", j.Filename)
		root.SetInt("index", int64(index))
		root.SetInt("group", int64(j.Group))
		root.SetInt("seed", j.SampleSeed)
		ctx = trace.NewContext(ctx, root)
		// On timeout the abandoned goroutine may still append children
		// after the root ends; the trace layer tolerates late arrivals.
		defer root.End()
	}
	start := time.Now()
	if cfg.JobTimeout <= 0 {
		tr, perr := invoke(ctx, j, fn)
		return Result{Job: j, Transcript: tr, Err: perr, Elapsed: time.Since(start)}
	}

	jctx, cancel := context.WithTimeout(ctx, cfg.JobTimeout)
	defer cancel()
	type outcome struct {
		tr  *agent.Transcript
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		tr, perr := invoke(jctx, j, fn)
		ch <- outcome{tr, perr}
	}()
	select {
	case o := <-ch:
		return Result{Job: j, Transcript: o.tr, Err: o.err, Elapsed: time.Since(start)}
	case <-jctx.Done():
		return Result{Job: j, Err: jctx.Err(), Elapsed: time.Since(start)}
	}
}

// invoke runs the fix function with panic isolation: a panicking job
// becomes a failed Result carrying a *resilience.PanicError instead of
// unwinding the worker and crashing the pool (and, behind it, the
// daemon). The fix function's own defers run normally during the
// unwind.
func invoke(ctx context.Context, j Job, fn FixFunc) (tr *agent.Transcript, err error) {
	defer func() {
		if r := recover(); r != nil {
			tr, err = nil, resilience.Recovered("pipeline.job", r)
		}
	}()
	return fn(ctx, j), nil
}
