package fault

import (
	"strings"
	"testing"
	"time"
)

// TestParse: the profile grammar round-trips valid entries and rejects
// unknown points, bad rates, and malformed entries with useful errors.
func TestParse(t *testing.T) {
	r, err := Parse("analyze.panic:0.25; worker.panic:1.0 ; sim.stall:0.5:7ms", 42)
	if err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if got := snap[AnalyzePanic].Rate; got != 0.25 {
		t.Fatalf("analyze.panic rate = %v, want 0.25", got)
	}
	if got := snap[SimStall].DelayMS; got != 7 {
		t.Fatalf("sim.stall delay = %vms, want 7", got)
	}
	if r.Seed() != 42 {
		t.Fatalf("seed = %d", r.Seed())
	}

	for _, bad := range []string{
		"no.such.point:0.5",
		"analyze.panic:1.5",
		"analyze.panic:-0.1",
		"analyze.panic",
		"analyze.panic:0.5:not-a-duration",
		"analyze.panic:0.5:1ms:extra",
	} {
		if _, err := Parse(bad, 1); err == nil {
			t.Errorf("Parse(%q) accepted, want error", bad)
		}
	}
	// A point that left the catalog (the durable store's and the LLM
	// backend's, here) fails at Parse like any typo, so a stale profile
	// cannot silently no-op.
	for _, unknown := range []string{"no.such.point:0.5", "store.write.error:0.5", "llm.transient:0.5"} {
		if _, err := Parse(unknown, 1); err == nil || !strings.Contains(err.Error(), "known:") {
			t.Fatalf("Parse(%q): unknown-point error should list the catalog, got %v", unknown, err)
		}
	}

	// Empty profile: valid, empty registry.
	if r, err := Parse("", 1); err != nil || len(r.Snapshot()) != 0 {
		t.Fatalf("empty profile: %v, %d points", err, len(r.Snapshot()))
	}
}

// TestDeterministicSchedule: the same seed replays the exact same fire
// schedule; a different seed diverges.
func TestDeterministicSchedule(t *testing.T) {
	run := func(seed int64) []bool {
		r := MustParse("worker.panic:0.3", seed)
		out := make([]bool, 200)
		for i := range out {
			out[i], _ = r.decide(WorkerPanic)
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at decision %d", i)
		}
	}
	c := run(8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced an identical 200-decision schedule")
	}
}

// TestRateAccuracy: over many decisions the fire fraction tracks the
// configured rate, and the 0/1 extremes are exact.
func TestRateAccuracy(t *testing.T) {
	r := MustParse("analyze.panic:0.2;handler.panic:0;worker.panic:1", 3)
	fired := 0
	for i := 0; i < 5000; i++ {
		if f, _ := r.decide(AnalyzePanic); f {
			fired++
		}
		if f, _ := r.decide(HandlerPanic); f {
			t.Fatal("rate-0 point fired")
		}
		if f, _ := r.decide(WorkerPanic); !f {
			t.Fatal("rate-1 point did not fire")
		}
	}
	frac := float64(fired) / 5000
	if frac < 0.15 || frac > 0.25 {
		t.Fatalf("rate-0.2 point fired %.3f of the time", frac)
	}
	snap := r.Snapshot()
	if snap[AnalyzePanic].Decisions != 5000 || snap[AnalyzePanic].Fired != uint64(fired) {
		t.Fatalf("snapshot tallies off: %+v vs fired=%d", snap[AnalyzePanic], fired)
	}
}

// TestLimit: SetLimit caps fires — "fail twice then recover" schedules.
func TestLimit(t *testing.T) {
	r := MustParse("worker.panic:1", 1)
	if err := r.SetLimit(WorkerPanic, 2); err != nil {
		t.Fatal(err)
	}
	fires := 0
	for i := 0; i < 10; i++ {
		if f, _ := r.decide(WorkerPanic); f {
			fires++
		}
	}
	if fires != 2 {
		t.Fatalf("limited point fired %d times, want 2", fires)
	}
	if err := r.SetLimit("handler.panic", 1); err == nil {
		t.Fatal("SetLimit on unconfigured point accepted")
	}
}

// TestGlobalHelpers: uninstalled registry is inert; installed, the
// helpers fire per the profile and Snapshot reflects it.
func TestGlobalHelpers(t *testing.T) {
	Uninstall()
	if Hit(WorkerPanic) || Hit(HandlerPanic) || Snapshot() != nil {
		t.Fatal("uninstalled registry not inert")
	}
	Delay(SimStall) // must not sleep or panic

	Install(MustParse("handler.panic:1;worker.panic:0", 9))
	defer Uninstall()
	if Snapshot() == nil {
		t.Fatal("Snapshot() nil after Install")
	}
	if !Hit(HandlerPanic) {
		t.Fatal("rate-1 point did not fire")
	}
	if Hit(WorkerPanic) {
		t.Fatal("rate-0 point fired")
	}
	if Hit("not.configured") {
		t.Fatal("unconfigured point fired")
	}
	if snap := Snapshot(); snap[HandlerPanic].Fired != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// TestDelaySleeps: a fired stall point sleeps its configured duration.
func TestDelaySleeps(t *testing.T) {
	Install(MustParse("compile.stall:1:30ms", 5))
	defer Uninstall()
	start := time.Now()
	Delay(CompileStall)
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Fatalf("Delay slept only %v", el)
	}
}
