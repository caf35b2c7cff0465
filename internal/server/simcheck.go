// Post-fix simulation smoke check: a successful /v1/fix's final code is
// elaborated and pulsed for one clock cycle before the response is
// published. The serving path otherwise never exercises the simulation
// engine — compiler personas are string-rendering frontends — so this is
// both a cheap behavioral sanity signal ("the fixed design elaborates,
// settles, and survives a clock edge") and the hook that gives request
// traces their sim stage. The check never alters the response body;
// outcomes surface only in /v1/stats, /metrics, and the request trace.
package server

import (
	"repro/internal/agent"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wave"
)

// simCheck runs the smoke check behind a panic guard and counts its
// outcome exactly once: the result label runSimCheck returned, or
// "skipped" when the check panicked — wherever it panicked, so a panic
// after the verdict (say, in the deferred coverage fold) does not count
// the check twice. The check is a best-effort signal on the degradation
// ladder: a panicking engine (or a fault-injected one) skips the feature
// instead of failing the whole agent run it rides on.
func (s *Server) simCheck(tr *agent.Transcript, parent *trace.Span) {
	var result string
	if err := resilience.Safe("simcheck", func() { result = s.runSimCheck(tr, parent) }); err != nil {
		result = "panic"
		s.cfg.logf("server: sim check panicked (isolated): %v", err)
	}
	switch result {
	case "": // no check ran
	case "ok":
		s.m.simPassed.Inc()
	case "settle_error", "clock_error":
		s.m.simFailed.Inc()
	case "watchdog":
		s.m.simWatchdog.Inc()
	default: // not_elaborable, not_simulable, panic
		s.m.simSkipped.Inc()
	}
}

// runSimCheck is the smoke check for one finished agent run. It returns
// the result label it records on a "sim" child of parent, or "" when no
// check applies (the run failed). Sources that do not elaborate (the
// personas accept code the stricter sim frontend rejects) or whose design
// the compiled engine rejects are skipped, not failed. The shared
// SimCache means a coalesced-or-repeated source pays frontend+compile
// once.
func (s *Server) runSimCheck(tr *agent.Transcript, parent *trace.Span) (result string) {
	if tr == nil || !tr.Success {
		return ""
	}
	sp := parent.Child("sim")
	defer func() {
		sp.SetStr("result", result)
		sp.End()
	}()

	prog, design, _ := s.simCache.Program(tr.FinalCode)
	switch {
	case design == nil:
		return "not_elaborable"
	case prog == nil:
		return "not_simulable" // the compiled engine rejected the design
	}
	return smokeRun(prog, sp, s.simObs)
}

// smokeRun settles one instance of prog and pulses its clock once,
// returning the result label. A simulation that blows its watchdog
// budget is canceled, never request-fatal. Every run is observed:
// coverage and the engine profile fold into obs, and sp (nil with
// tracing off) gets the clock and the coverage summary.
func smokeRun(prog *sim.Program, sp *trace.Span, obs *simObs) string {
	sm := sim.NewFromProgram(prog)

	// The settle-plus-one-pulse run is microseconds on healthy designs,
	// so the budget only ever trips on a runaway (or fault-injected)
	// simulation.
	sm.SetWatchdog(resilience.NewWatchdog(sim.CheckWall, sim.CheckSteps))
	// Observe the check regardless of outcome: coverage and the engine's
	// execution profile. The fold runs deferred so watchdog/settle exits
	// still report.
	cov := wave.NewCoverage()
	sm.Observe(cov)
	sm.EnableProfile()
	defer func() {
		cov.AddActivations(sm.Activations())
		obs.fold(cov, sm.Profile())
		if sp != nil {
			sp.SetStr("coverage", cov.Stats().String())
		}
	}()
	if err := sm.Settle(); err != nil {
		if resilience.IsWatchdog(err) {
			return "watchdog"
		}
		return "settle_error"
	}
	if clk := sim.ClockInput(sm.Design()); clk != "" {
		sp.SetStr("clock", clk)
		if err := sm.ClockPulse(clk); err != nil {
			if resilience.IsWatchdog(err) {
				return "watchdog"
			}
			return "clock_error"
		}
	}
	return "ok"
}
