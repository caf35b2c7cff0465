package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/trace"
)

// synthFix is a deterministic pure function of the job, mimicking the
// contract core.RTLFixer.Fix satisfies.
func synthFix(_ context.Context, j Job) *agent.Transcript {
	seed := j.SampleSeed
	return &agent.Transcript{
		Success:    seed%3 != 0,
		Iterations: int(seed%int64(agent.DefaultMaxIterations)) + 1,
		FinalCode:  fmt.Sprintf("// job %d seed %d\n%s", j.Index, seed, j.Code),
	}
}

func makeJobs(n, groups int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Group:      i % groups,
			Filename:   "main.v",
			Code:       fmt.Sprintf("module m%d; endmodule\n", i),
			SampleSeed: int64(i)*7919 + 3,
		}
	}
	return jobs
}

// TestDeterministicAcrossWorkerCounts is the pipeline's core guarantee:
// the ordered result slice and its summary are identical for 1 worker and
// for any larger pool.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	jobs := makeJobs(60, 12)
	ref, err := Run(context.Background(), Config{Workers: 1}, jobs, synthFix)
	if err != nil {
		t.Fatal(err)
	}
	refSum := Summarize(ref)
	for _, workers := range []int{2, 4, 8, 64} {
		got, err := Run(context.Background(), Config{Workers: workers}, jobs, synthFix)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			// Elapsed legitimately varies; everything else must not.
			got[i].Elapsed = ref[i].Elapsed
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("results differ between 1 and %d workers", workers)
		}
		gotSum := Summarize(got)
		gotSum.TotalWork = refSum.TotalWork
		if !reflect.DeepEqual(refSum, gotSum) {
			t.Fatalf("summaries differ between 1 and %d workers", workers)
		}
	}
}

// TestDeterministicWithRealFixer runs the real agent through the pool and
// checks final code and success bits agree between worker counts.
func TestDeterministicWithRealFixer(t *testing.T) {
	fixer, err := core.New(core.Options{
		CompilerName: "quartus", RAG: true, Mode: core.ModeReAct, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const buggy = `module top_module (
	input [3:0] a,
	output reg [3:0] out
);
	always @(posedge clk) begin
		out <= a
	end
endmodule
`
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Group: i / 2, Filename: "main.v", Code: buggy, SampleSeed: int64(i) * 31}
	}
	fn := func(_ context.Context, j Job) *agent.Transcript {
		return fixer.Fix(j.Filename, j.Code, j.SampleSeed)
	}
	serial, err := Run(context.Background(), Config{Workers: 1}, jobs, fn)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(context.Background(), Config{Workers: 4}, jobs, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].Transcript.FinalCode != parallel[i].Transcript.FinalCode ||
			serial[i].Transcript.Success != parallel[i].Transcript.Success ||
			serial[i].Transcript.Iterations != parallel[i].Transcript.Iterations {
			t.Fatalf("job %d diverged between worker counts", i)
		}
	}
}

// TestCancellationMidBatch cancels the context while the batch is
// draining: Run must return ctx.Err(), mark unstarted jobs with it, and
// still produce a full-length, index-aligned result slice.
func TestCancellationMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	block := make(chan struct{})
	fn := func(_ context.Context, j Job) *agent.Transcript {
		if started.Add(1) == 2 {
			cancel()
		}
		<-block
		return synthFix(context.Background(), j)
	}
	jobs := makeJobs(40, 8)
	done := make(chan struct{})
	var results []Result
	var runErr error
	go func() {
		results, runErr = Run(ctx, Config{Workers: 2}, jobs, fn)
		close(done)
	}()
	// Unblock the in-flight jobs once cancellation has been observed.
	go func() {
		for started.Load() < 2 {
			time.Sleep(time.Millisecond)
		}
		<-ctx.Done()
		close(block)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", runErr)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	completed, canceled := 0, 0
	for i, r := range results {
		if r.Job.Index != i {
			t.Fatalf("result %d carries index %d", i, r.Job.Index)
		}
		switch {
		case r.Err == nil && r.Transcript != nil:
			completed++
		case errors.Is(r.Err, context.Canceled):
			canceled++
		default:
			t.Fatalf("result %d in impossible state: err=%v transcript=%v", i, r.Err, r.Transcript)
		}
	}
	if canceled == 0 {
		t.Fatal("no job observed the cancellation")
	}
	sum := Summarize(results)
	if sum.Errored != canceled || sum.Completed != completed {
		t.Fatalf("summary miscounts: %+v vs completed=%d canceled=%d", sum, completed, canceled)
	}
}

// TestJobTimeout bounds a stuck job without stalling the batch.
func TestJobTimeout(t *testing.T) {
	fn := func(ctx context.Context, j Job) *agent.Transcript {
		if j.Index == 1 {
			<-ctx.Done() // simulate a job that outlives its budget
		}
		return synthFix(ctx, j)
	}
	jobs := makeJobs(4, 4)
	results, err := Run(context.Background(),
		Config{Workers: 2, JobTimeout: 50 * time.Millisecond}, jobs, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if i == 1 {
			if !errors.Is(r.Err, context.DeadlineExceeded) {
				t.Fatalf("job 1 err = %v, want deadline exceeded", r.Err)
			}
			continue
		}
		if r.Err != nil || r.Transcript == nil {
			t.Fatalf("job %d should have completed: %v", i, r.Err)
		}
	}
}

// TestEmptyBatch must not deadlock or panic.
func TestEmptyBatch(t *testing.T) {
	results, err := Run(context.Background(), Config{}, nil, synthFix)
	if err != nil || len(results) != 0 {
		t.Fatalf("empty batch: %v %v", results, err)
	}
	if s := Summarize(results); !math.IsNaN(s.FixRate) || s.Jobs != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
}

// TestCanceledSlotsCarryCtxErr: when the batch is canceled mid-drain,
// Run returns ctx.Err() and every slot is either a completed job or
// carries ctx.Err().
func TestCanceledSlotsCarryCtxErr(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	block := make(chan struct{})
	fn := func(_ context.Context, j Job) *agent.Transcript {
		if started.Add(1) == 2 {
			cancel()
		}
		<-block
		return synthFix(context.Background(), j)
	}
	jobs := makeJobs(25, 5)
	go func() {
		for started.Load() < 2 {
			time.Sleep(time.Millisecond)
		}
		<-ctx.Done()
		close(block)
	}()
	results, runErr := Run(ctx, Config{Workers: 2}, jobs, fn)
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", runErr)
	}
	for i, r := range results {
		if r.Err != nil && !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("slot %d carries %v, want context.Canceled", i, r.Err)
		}
	}
}

// TestTracerCollectsJobTraces runs the real fixer with a collector
// attached and checks (a) every job produced a trace rooted at "job"
// with an "agent" child carrying compile spans, and (b) transcripts are
// byte-identical to an untraced run — tracing must be a pure observer.
func TestTracerCollectsJobTraces(t *testing.T) {
	fixer, err := core.New(core.Options{
		CompilerName: "quartus", RAG: true, Cache: true, Mode: core.ModeReAct, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const buggy = `module top_module (
	input [3:0] a,
	output reg [3:0] out
);
	always @(posedge clk) begin
		out <= a
	end
endmodule
`
	jobs := make([]Job, 4)
	for i := range jobs {
		jobs[i] = Job{Group: i, Filename: "main.v", Code: buggy, SampleSeed: int64(i) * 31}
	}
	plain, err := Run(context.Background(), Config{Workers: 2}, jobs, FixWith(fixer))
	if err != nil {
		t.Fatal(err)
	}
	c := trace.NewCollector(16, 0, time.Hour)
	traced, err := Run(context.Background(), Config{Workers: 2, Tracer: c}, jobs, FixWith(fixer))
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i].Transcript.FinalCode != traced[i].Transcript.FinalCode ||
			plain[i].Transcript.Success != traced[i].Transcript.Success {
			t.Fatalf("job %d output changed under tracing", i)
		}
	}
	sums := c.Summaries(0)
	if len(sums) != len(jobs) {
		t.Fatalf("collected %d traces, want %d", len(sums), len(jobs))
	}
	for _, s := range sums {
		tr, ok := c.Get(s.ID)
		if !ok {
			t.Fatalf("trace %s not retrievable", s.ID)
		}
		j := tr.JSON()
		if j.Root.Name != "job" {
			t.Fatalf("root span = %q, want job", j.Root.Name)
		}
		stages := map[string]int{}
		tr.Walk(func(name string, _ time.Duration, ended bool) {
			if ended {
				stages[name]++
			}
		})
		if stages["agent"] != 1 || stages["compile"] == 0 {
			t.Fatalf("trace %s missing agent/compile spans: %v", s.ID, stages)
		}
	}
}
