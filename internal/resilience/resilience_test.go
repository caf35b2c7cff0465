package resilience

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestSafeCapturesPanic: Safe converts a panic into a *PanicError with
// site and stack; a clean fn returns nil.
func TestSafeCapturesPanic(t *testing.T) {
	err := Safe("test.site", func() { panic("boom") })
	pe, ok := AsPanic(err)
	if !ok || pe.Site != "test.site" || pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("err = %#v", err)
	}
	if !strings.Contains(pe.Error(), "panic in test.site: boom") {
		t.Fatalf("message = %q", pe.Error())
	}
	if err := Safe("ok", func() {}); err != nil {
		t.Fatalf("clean fn: %v", err)
	}
	if _, ok := AsPanic(errors.New("plain")); ok {
		t.Fatal("plain error reported as panic")
	}
}

// TestWatchdogSteps: the step budget trips at the boundary; nil is free.
func TestWatchdogSteps(t *testing.T) {
	w := NewWatchdog(0, 3)
	for i := 0; i < 3; i++ {
		if err := w.Step(1); err != nil {
			t.Fatalf("step %d tripped early: %v", i, err)
		}
	}
	err := w.Step(1)
	if err == nil || !IsWatchdog(err) {
		t.Fatalf("4th step: %v", err)
	}
	var nw *Watchdog
	if nw.Step(100) != nil || nw.Check() != nil {
		t.Fatal("nil watchdog must be free")
	}
}

// TestWatchdogTrip: loop trips are checked every tripsPerCheck-th
// trip, never count as steps, and are free on a nil watchdog.
func TestWatchdogTrip(t *testing.T) {
	now := time.Unix(0, 0)
	w := &Watchdog{start: now, wall: time.Second, maxSteps: 1, now: func() time.Time { return now }}
	now = now.Add(2 * time.Second)
	for i := 1; i < tripsPerCheck; i++ {
		if err := w.Trip(); err != nil {
			t.Fatalf("trip %d checked early: %v", i, err)
		}
	}
	err := w.Trip()
	var we *WatchdogError
	if !errors.As(err, &we) || !we.Wall || we.Steps != 0 {
		t.Fatalf("trip %d: %#v, want a wall trip with no steps", tripsPerCheck, err)
	}
	var nw *Watchdog
	if nw.Trip() != nil {
		t.Fatal("nil watchdog must be free")
	}
}

// TestWatchdogWall: the wall-clock budget trips once elapsed.
func TestWatchdogWall(t *testing.T) {
	now := time.Unix(0, 0)
	w := &Watchdog{start: now, wall: time.Second, now: func() time.Time { return now }}
	if err := w.Check(); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Second)
	err := w.Check()
	if err == nil || !IsWatchdog(err) {
		t.Fatalf("after deadline: %v", err)
	}
	var we *WatchdogError
	if !errors.As(err, &we) || !we.Wall {
		t.Fatalf("wrong trip kind: %#v", err)
	}
}
