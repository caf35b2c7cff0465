// Admission, single-flight coalescing, and dispatch for the fix
// service. The flow for one POST /v1/fix:
//
//	handler ── joinOrLead ──┬── follower: wait on an existing flight
//	                        └── leader: admit → enqueue → wait
//	runners (MaxInFlight goroutines) ── take the next flight off the
//	           FIFO queue → run the agent → finish it (result stored,
//	           waiters woken), so a slow run holds only its own runner
//	           and never head-of-line-blocks an unrelated request.
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
	// for FNV-collision flights); queueSpan covers admission → a runner
	// taking the flight. Only the leader's trace carries the run: coalesced
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
	if exists && existing.source == req.Source {
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
	if !exists {
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
	// when a runner takes the flight (or the flight dies first), so its
	// duration is exactly the time the request read as "queued".
	f.queueSpan = f.root.Child("queue")
	s.queue <- f // capacity == admission limit: never blocks
	return nil
}

// runner is one of the MaxInFlight goroutines that execute flights: it
// takes them off the admission queue in FIFO order until the queue is
// closed. The runner count is the bound on concurrent agent runs, so a
// flight that leaves the queue starts at once, and a slow run occupies
// only its own runner.
func (s *Server) runner() {
	defer s.runnersWG.Done()
	for f := range s.queue {
		s.runFlight(f)
	}
}

// runFlight runs one flight unless Close stopped the server or every
// waiter gave up while it was queued, then finishes it. The queueDepth
// gauge counts admitted-not-yet-running flights, so it drops the moment
// a runner takes the flight.
func (s *Server) runFlight(f *flight) {
	s.m.queueDepth.Dec()
	select {
	case <-s.stop:
		// Close aborts flights that have not started: their waiters get
		// 503, distinct from a deadline's 504.
		f.queueSpan.SetStr("outcome", "shutdown")
		f.queueSpan.End()
		s.finish(f, nil, 0, errShutdown)
		return
	default:
	}
	if !s.flightAliveOrRetire(f) {
		// Every waiter's deadline expired before the run started. Skip
		// the work; finish delivers tr == nil.
		s.m.expiredBeforeRun.Inc()
		f.queueSpan.SetStr("outcome", "expired")
		f.queueSpan.End()
		s.finish(f, nil, 0, nil)
		return
	}
	f.queueSpan.End()
	start := time.Now()
	tr, err := s.runAgent(f)
	s.finish(f, tr, time.Since(start), err)
}

// runAgent is one agent run with panic isolation: a panicking run
// becomes this flight's *resilience.PanicError (its waiters get a 500)
// instead of unwinding the runner and crashing the daemon. The run's own
// defers (the in-flight gauge) run normally during the unwind.
func (s *Server) runAgent(f *flight) (tr *agent.Transcript, err error) {
	defer func() {
		if rv := recover(); rv != nil {
			pe := resilience.Recovered("server.run", rv)
			s.m.panicsWorker.Inc()
			s.cfg.logf("server: agent run panicked (isolated): %v\n%s", pe.Value, pe.Stack)
			tr, err = nil, pe
		}
	}()
	if s.testHook != nil {
		s.testHook(f)
	}
	s.m.inFlight.Inc()
	defer s.m.inFlight.Dec()
	s.m.agentRuns.Inc()
	if fault.Hit(fault.WorkerPanic) {
		// Deliberately past the gauges and their defers: the injected
		// panic unwinds through them exactly like a real one.
		panic("fault: injected worker panic")
	}
	run := f.root.Child("run")
	ag := run.Child("agent")
	tr = f.fixer.FixTraced(f.filename, f.source, f.seed, ag)
	if tr != nil {
		ag.SetBool("success", tr.Success)
		ag.SetInt("iterations", int64(tr.Iterations))
	}
	ag.End()
	s.simCheck(tr, run)
	run.End()
	return tr, nil
}

// finish publishes a flight's outcome and releases its admission slot.
// The flight leaves the map before done closes, so late arrivals start a
// fresh run instead of reading a completed flight.
func (s *Server) finish(f *flight, tr *agent.Transcript, elapsed time.Duration, err error) {
	s.flightsMu.Lock()
	if cur, ok := s.flights[f.key]; ok && cur == f {
		delete(s.flights, f.key)
	}
	s.flightsMu.Unlock()

	f.tr, f.elapsed, f.err = tr, elapsed, err
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
// wait for every admitted flight to finish, then stop the runners.
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
	runnersDone := make(chan struct{})
	go func() {
		s.runnersWG.Wait()
		close(runnersDone)
	}()
	select {
	case <-runnersDone:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.cfg.logf("server: drained cleanly")
	return nil
}

// Close force-stops the server: drain admission, answer queued flights
// that have not started with 503, and stop the runners. Running agent
// runs cannot be preempted and are left to finish their flights. Always
// returns nil; the error form satisfies io.Closer.
func (s *Server) Close() error {
	s.BeginDrain()
	s.stopOnce.Do(func() { close(s.stop) })
	s.queueCloseOnce.Do(func() { close(s.queue) })
	s.runnersWG.Wait()
	return nil
}
