package resilience

import (
	"fmt"
	"time"
)

// WatchdogError reports a tripped watchdog: a simulation that exceeded
// its wall-clock or cycle allowance and was canceled mid-settle.
type WatchdogError struct {
	Wall    bool          // true: wall-clock limit; false: step limit
	Elapsed time.Duration // wall time consumed when tripped
	Steps   int64         // steps consumed when tripped
}

func (e *WatchdogError) Error() string {
	if e.Wall {
		return fmt.Sprintf("watchdog: wall-clock budget exceeded after %v (%d steps)", e.Elapsed.Round(time.Millisecond), e.Steps)
	}
	return fmt.Sprintf("watchdog: step budget exceeded at %d steps (%v elapsed)", e.Steps, e.Elapsed.Round(time.Millisecond))
}

// IsWatchdog reports whether err is a watchdog trip.
func IsWatchdog(err error) bool {
	_, ok := err.(*WatchdogError)
	return ok
}

// Watchdog bounds a simulation run by wall clock and/or step count. It
// is single-goroutine state (a Simulator instance is not concurrent);
// a nil *Watchdog is a free no-op, which keeps the sim hot path
// zero-cost when no budget is set.
type Watchdog struct {
	start    time.Time
	wall     time.Duration // 0 = no wall limit
	maxSteps int64         // 0 = no step limit
	steps    int64
	trips    int64            // procedural loop trips charged by Trip
	now      func() time.Time // test seam; nil means time.Now
}

// NewWatchdog returns a watchdog armed now. Zero disables a limit.
func NewWatchdog(wall time.Duration, maxSteps int64) *Watchdog {
	return &Watchdog{start: time.Now(), wall: wall, maxSteps: maxSteps}
}

func (w *Watchdog) clock() time.Time {
	if w.now != nil {
		return w.now()
	}
	return time.Now()
}

// Step consumes n steps and checks both budgets. Nil receiver: no-op.
func (w *Watchdog) Step(n int64) error {
	if w == nil {
		return nil
	}
	w.steps += n
	return w.Check()
}

// tripsPerCheck is how many loop trips Trip charges between budget
// checks. A trip is a handful of instructions, so one clock read per
// 4096 trips costs next to nothing, while a loop nest of any depth is
// stopped within 4096 trips of its budget running out.
const tripsPerCheck = 4096

// Trip charges one iteration of a procedural for loop and checks the
// budgets on every tripsPerCheck-th. Trips are not steps: a design may
// legally run thousands of them inside one clock edge, and each loop's
// own trip limit is per entry, so nested loops (60000 × 60000 trips in
// one always block) would otherwise hold the simulating goroutine long
// past the wall budget. Nil receiver: no-op.
func (w *Watchdog) Trip() error {
	if w == nil {
		return nil
	}
	w.trips++
	if w.trips%tripsPerCheck != 0 {
		return nil
	}
	return w.Check()
}

// Check reports a budget violation without consuming steps. Nil
// receiver: no-op. It is called inside the engine's settle loop (and
// through Trip inside procedural loops), so a simulation stalled
// mid-settle is canceled there, not merely at the next cycle boundary.
func (w *Watchdog) Check() error {
	if w == nil {
		return nil
	}
	if w.maxSteps > 0 && w.steps > w.maxSteps {
		return &WatchdogError{Wall: false, Elapsed: w.clock().Sub(w.start), Steps: w.steps}
	}
	if w.wall > 0 {
		if el := w.clock().Sub(w.start); el > w.wall {
			return &WatchdogError{Wall: true, Elapsed: el, Steps: w.steps}
		}
	}
	return nil
}
