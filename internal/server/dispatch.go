// Admission, single-flight coalescing, and batched dispatch for the fix
// service. The flow for one POST /v1/fix:
//
//	handler ── joinOrLead ──┬── follower: wait on an existing flight
//	                        └── leader: admit → enqueue → wait
//	dispatcher ── collect a batch (≤ MaxBatch, ≤ BatchLinger) ──
//	           └─ each batch runs in its own goroutine: pipeline.Run
//	              fans it over Workers goroutines, agent runs gated by
//	              the MaxInFlight run-slot semaphore; each flight is
//	              finished (result stored, waiters woken) the moment its
//	              own job completes (pipeline OnResult), so a slow run
//	              never head-of-line-blocks an unrelated request.
//
// Admission is a counting semaphore over leaders only: coalesced
// followers ride for free, which is exactly the point — a thundering
// herd of identical requests consumes one admission slot and one agent
// run. Everything here is bounded: the queue channel's capacity equals
// the admission limit, so enqueues never block and overflow is an
// immediate 429 at the handler.
package server

import (
	"context"
	"errors"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/memo"
	"repro/internal/pipeline"
	"repro/internal/resilience"
	"repro/internal/trace"
)

// Admission failures, mapped to HTTP statuses by the fix handler.
var (
	errQueueFull = errors.New("admission queue full")
	errDraining  = errors.New("draining")
	// errShutdown marks runs aborted by Close before they started; their
	// waiters get 503, distinct from a genuine deadline 504.
	errShutdown = errors.New("server closed before the run started")
)

// flightKey identifies coalescable work: same fixer configuration, same
// file, same source content, same problem instance.
type flightKey struct {
	cfg      fixerKey
	filename string
	srcHash  uint64
	seed     int64
}

// flight is one scheduled agent run plus everyone waiting on it. The
// leader creates it and pays admission; followers join while it is still
// in the flights map. finish stores the outcome and closes done.
type flight struct {
	key      flightKey
	fixer    *core.RTLFixer
	filename string
	source   string
	seed     int64
	// waiters holds the request context of the leader and every
	// coalesced follower (guarded by Server.flightsMu). A queued flight
	// is only skipped when every waiter's context is dead — a follower
	// with a healthy deadline keeps the run alive even if the leader
	// timed out or disconnected.
	waiters []context.Context
	done    chan struct{}

	// root is the leader's request trace span (nil with tracing off or
	// for FNV-collision flights); queueSpan covers admission → run-slot
	// acquisition. Only the leader's trace carries the run: coalesced
	// followers' traces record their own admission and wait, and the
	// shared agent work appears once, under the request that started it.
	root      *trace.Span
	queueSpan *trace.Span

	// Outcome, valid after done is closed.
	tr      *agent.Transcript
	elapsed time.Duration
	err     error
}

// joinOrLead coalesces the request onto an in-flight identical run when
// possible, otherwise admits a new flight. The returned bool is true for
// a coalesced follower. Lock order: flightsMu, then admitMu (read side);
// nothing acquires them the other way around.
func (s *Server) joinOrLead(ctx context.Context, req *fixRequest, fixer *core.RTLFixer, root *trace.Span) (*flight, bool, error) {
	key := flightKey{cfg: req.key(), filename: req.Filename, srcHash: memo.HashSource(req.Source), seed: req.seed()}

	s.flightsMu.Lock()
	defer s.flightsMu.Unlock()
	existing, exists := s.flights[key]
	if !s.cfg.DisableCoalesce && exists && existing.source == req.Source {
		existing.waiters = append(existing.waiters, ctx)
		return existing, true, nil
	}
	f := &flight{
		key:      key,
		fixer:    fixer,
		filename: req.Filename,
		source:   req.Source,
		seed:     req.seed(),
		waiters:  []context.Context{ctx},
		done:     make(chan struct{}),
		root:     root,
	}
	if err := s.admitLocked(f); err != nil {
		return nil, false, err
	}
	// Register for coalescing unless the slot is taken by an FNV
	// collision (same key, different source) — that flight runs
	// unregistered and cannot be joined.
	if !s.cfg.DisableCoalesce && !exists {
		s.flights[key] = f
	}
	return f, false, nil
}

// admitLocked charges the admission semaphore and enqueues the flight.
// Callers hold flightsMu; the admit lock's read side is taken here so a
// send into queue can never race BeginDrain's close-off.
func (s *Server) admitLocked(f *flight) error {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining {
		return errDraining
	}
	select {
	case s.admitted <- struct{}{}:
	default:
		return errQueueFull
	}
	s.flightWG.Add(1)
	s.m.queueDepth.Inc()
	// The queue span opens the moment admission is charged and closes
	// when the run slot is acquired (or the flight dies first), so its
	// duration is exactly the time the request read as "queued".
	f.queueSpan = f.root.Child("queue")
	s.queue <- f // capacity == admission limit: never blocks
	return nil
}

// dispatch is the batching loop: take the first queued flight, linger
// briefly to fill a batch, fan the batch out through internal/pipeline,
// repeat. Batches run concurrently (tracked by batchWG) so one slow job
// never head-of-line-blocks later arrivals; the number of agent runs
// actually executing is bounded separately by the runSlots semaphore
// (MaxInFlight), which is what makes concurrent batches safe.
func (s *Server) dispatch() {
	defer close(s.dispatcherDone)
	for {
		first, ok := <-s.queue
		if !ok {
			return
		}
		batch := s.collectBatch(first)
		s.batchWG.Add(1)
		go func() {
			defer s.batchWG.Done()
			s.runBatch(batch)
		}()
	}
}

// collectBatch gathers up to MaxBatch flights, waiting at most
// BatchLinger after the first one — the DAQ event-building compromise
// between batching efficiency and added latency.
func (s *Server) collectBatch(first *flight) []*flight {
	batch := []*flight{first}
	if s.cfg.MaxBatch <= 1 {
		return batch
	}
	timer := time.NewTimer(s.cfg.BatchLinger)
	defer timer.Stop()
	for len(batch) < s.cfg.MaxBatch {
		select {
		case f, ok := <-s.queue:
			if !ok {
				return batch
			}
			batch = append(batch, f)
		case <-timer.C:
			return batch
		}
	}
	return batch
}

// runBatch fans one batch over the pipeline pool. Each flight completes
// individually via OnResult, so a fast job never waits for a slow
// batchmate's response (only for the batch's worker slots).
func (s *Server) runBatch(batch []*flight) {
	s.m.batches.Inc()
	s.m.batchedJobs.Add(uint64(len(batch)))
	s.m.maxBatch.Max(int64(len(batch)))

	jobs := make([]pipeline.Job, len(batch))
	for i, f := range batch {
		jobs[i] = pipeline.Job{Filename: f.filename, Code: f.source, SampleSeed: f.seed}
	}
	// The queueDepth gauge counts admitted-not-yet-running requests; it
	// is decremented only once a run slot is held (or the flight dies
	// first), so slot-waiting jobs still read as queued in /v1/stats.
	fn := func(_ context.Context, j pipeline.Job) *agent.Transcript {
		f := batch[j.Index]
		if !s.flightAliveOrRetire(f) {
			// Every waiter's deadline expired before the run started.
			// Skip the work; finish delivers tr == nil.
			s.m.queueDepth.Dec()
			s.m.expiredBeforeRun.Inc()
			f.queueSpan.SetStr("outcome", "expired")
			f.queueSpan.End()
			return nil
		}
		// Concurrent batches share the MaxInFlight run slots; waiting
		// here is the queueing the admission budget promised.
		select {
		case s.runSlots <- struct{}{}:
		case <-s.stop:
			// Safe to write here: fn and this job's finish (via
			// OnResult) run sequentially, and finish only overwrites
			// err on a pipeline-level cancellation.
			s.m.queueDepth.Dec()
			f.err = errShutdown
			f.queueSpan.SetStr("outcome", "shutdown")
			f.queueSpan.End()
			return nil
		}
		defer func() { <-s.runSlots }()
		s.m.queueDepth.Dec()
		if !s.flightAliveOrRetire(f) {
			s.m.expiredBeforeRun.Inc()
			f.queueSpan.SetStr("outcome", "expired")
			f.queueSpan.End()
			return nil
		}
		f.queueSpan.End()
		if s.testHook != nil {
			s.testHook(f)
		}
		s.m.inFlight.Inc()
		defer s.m.inFlight.Dec()
		s.m.agentRuns.Inc()
		if fault.Hit(fault.WorkerPanic) {
			// Deliberately past the gauges and their defers: the injected
			// panic unwinds through them exactly like a real one, and the
			// pipeline's recover turns it into this job's PanicError.
			panic("fault: injected worker panic")
		}
		run := f.root.Child("run")
		run.SetInt("batch_size", int64(len(batch)))
		ag := run.Child("agent")
		tr := f.fixer.FixTraced(f.filename, f.source, f.seed, ag)
		if tr != nil {
			ag.SetBool("success", tr.Success)
			ag.SetInt("iterations", int64(tr.Iterations))
			// Per-run resilience accounting (per run, not per waiter —
			// coalesced followers share one transcript).
			if tr.LLMRetries > 0 {
				s.m.llmRetriedRuns.Inc()
				if tr.Aborted == "" {
					s.m.llmRetryRecovered.Inc()
				}
			}
			if tr.Aborted != "" {
				s.m.llmAborted.Inc()
			}
		}
		ag.End()
		s.simCheck(tr, run)
		run.End()
		return tr
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { // Close aborts jobs that have not started
		select {
		case <-s.stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	_, _ = pipeline.Run(ctx, pipeline.Config{
		Workers: s.cfg.Workers,
		OnResult: func(r pipeline.Result) {
			f := batch[r.Job.Index]
			if pe, isPanic := resilience.AsPanic(r.Err); isPanic {
				// The run panicked mid-flight: fn's defers already
				// released the run slot and gauges during the unwind, so
				// no queue-depth charge is outstanding here.
				s.m.panicsWorker.Inc()
				s.cfg.logf("server: agent run panicked (isolated): %v\n%s", pe.Value, pe.Stack)
			} else if r.Err != nil {
				// Canceled before it ran (server Close): the queue-depth
				// charge from admission is still outstanding.
				s.m.queueDepth.Dec()
			}
			s.finish(f, r)
		},
	}, jobs, fn)
}

// finish publishes a flight's outcome and releases its admission slot.
// The flight leaves the map before done closes, so late arrivals start a
// fresh run instead of reading a completed flight.
func (s *Server) finish(f *flight, r pipeline.Result) {
	s.flightsMu.Lock()
	if cur, ok := s.flights[f.key]; ok && cur == f {
		delete(s.flights, f.key)
	}
	s.flightsMu.Unlock()

	f.tr = r.Transcript
	f.elapsed = r.Elapsed
	if r.Err != nil {
		f.err = r.Err // preserve a pre-set errShutdown otherwise
	}
	close(f.done)

	<-s.admitted // release the admission slot
	s.flightWG.Done()
}

// flightAliveOrRetire reports whether any waiter still cares about the
// flight. When every waiter's context is dead the flight is removed from
// the coalescing map in the same critical section, so no follower with a
// healthy deadline can join a flight already condemned to be skipped.
func (s *Server) flightAliveOrRetire(f *flight) bool {
	s.flightsMu.Lock()
	defer s.flightsMu.Unlock()
	for _, ctx := range f.waiters {
		if ctx.Err() == nil {
			return true
		}
	}
	if cur, ok := s.flights[f.key]; ok && cur == f {
		delete(s.flights, f.key)
	}
	return false
}

// isDraining reports whether BeginDrain has been called.
func (s *Server) isDraining() bool {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	return s.draining
}

// BeginDrain stops admitting fix work: subsequent /v1/fix requests get
// 503 and /v1/healthz reports draining. Requests already admitted (in
// flight or queued) are unaffected. Safe to call more than once.
func (s *Server) BeginDrain() {
	s.admitMu.Lock()
	already := s.draining
	s.draining = true
	s.admitMu.Unlock()
	if !already {
		s.cfg.logf("server: draining (no new fix work admitted)")
	}
}

// Drain gracefully shuts the dispatch machinery down: stop admission,
// wait for every admitted flight to finish, then stop the dispatcher.
// Returns ctx.Err() if the deadline expires first (flights still running
// keep running; call Close to abandon queued ones).
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	flightsDone := make(chan struct{})
	go func() {
		s.flightWG.Wait()
		close(flightsDone)
	}()
	select {
	case <-flightsDone:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.queueCloseOnce.Do(func() { close(s.queue) })
	select {
	case <-s.dispatcherDone:
	case <-ctx.Done():
		return ctx.Err()
	}
	batchesDone := make(chan struct{})
	go func() {
		s.batchWG.Wait()
		close(batchesDone)
	}()
	select {
	case <-batchesDone:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.cfg.logf("server: drained cleanly")
	return nil
}

// Close force-stops the server: drain admission, cancel queued jobs that
// have not started (their waiters get 503), and stop the dispatcher.
// Running agent runs cannot be preempted and are left to finish their
// flights. Always returns nil; the error form satisfies io.Closer.
func (s *Server) Close() error {
	s.BeginDrain()
	s.stopOnce.Do(func() { close(s.stop) })
	s.queueCloseOnce.Do(func() { close(s.queue) })
	<-s.dispatcherDone
	s.batchWG.Wait()
	return nil
}
