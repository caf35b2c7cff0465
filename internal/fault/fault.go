// Package fault is a deterministic, seedable fault-injection registry
// for the serving spine. Production code is threaded with named
// injection points (compile/sim stalls, worker, handler and analyzer
// panics); each point consults the globally installed registry, which
// decides per the configured probability whether the fault fires.
//
// Decisions are deterministic: the nth decision at point p under seed s
// is a pure function of (s, p, n), so the same seed replays the same
// fault schedule regardless of wall clock or goroutine interleaving of
// *other* points. With no registry installed (the production default)
// every helper is a single atomic load and a branch — no locks, no
// allocation, no RNG draw — so an empty profile leaves behavior and
// output byte-identical to a build without injection.
//
// Profiles are activated programmatically in tests
// (fault.Install(fault.MustParse(...)); defer fault.Uninstall()) or
// from the CLIs via rtlfixerd/benchmark -fault-profile. The grammar is
// semicolon-separated entries:
//
//	point:rate            fire with probability rate in [0, 1]
//	point:rate:duration   stall points: sleep duration when fired
//
// e.g. "worker.panic:0.05;analyze.panic:0.2;sim.stall:0.1:5ms".
package fault

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The catalog of injection points. Parse rejects names outside it, so a
// typo in a -fault-profile fails at startup instead of silently never
// firing. The simulated LLM is an in-process function that cannot
// fail, so no point stands for a failing backend.
const (
	CompileStall = "compile.stall" // compiler front-end stalls (duration)
	SimStall     = "sim.stall"     // simulator settle loop stalls (duration)
	WorkerPanic  = "worker.panic"  // pipeline worker panics mid-run
	HandlerPanic = "handler.panic" // HTTP handler panics before admission
	AnalyzePanic = "analyze.panic" // semantic analyzer panics on a source
)

var known = map[string]bool{
	CompileStall: true, SimStall: true,
	WorkerPanic: true, HandlerPanic: true, AnalyzePanic: true,
}

// Points returns the sorted catalog of known injection points.
func Points() []string {
	out := make([]string, 0, len(known))
	for p := range known {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// point is one configured injection point. decisions counts every
// consult (fired or not) so the schedule is a pure function of the
// consult sequence number.
type point struct {
	rate  float64
	delay time.Duration
	limit uint64 // 0 = unlimited; else stop firing after limit fires

	decisions uint64
	fired     uint64
}

// Registry is a set of configured injection points under one seed. The
// zero Registry is not usable; construct with New or Parse.
type Registry struct {
	seed   int64
	mu     sync.Mutex
	points map[string]*point
}

// New returns an empty registry with the given schedule seed.
func New(seed int64) *Registry {
	return &Registry{seed: seed, points: make(map[string]*point)}
}

// Set configures (or reconfigures) one injection point. rate is the
// per-decision fire probability in [0, 1]; delay is the stall duration
// for Delay points (ignored by Hit points).
func (r *Registry) Set(name string, rate float64, delay time.Duration) error {
	if !known[name] {
		return fmt.Errorf("fault: unknown injection point %q (known: %s)", name, strings.Join(Points(), ", "))
	}
	if rate < 0 || rate > 1 {
		return fmt.Errorf("fault: point %s rate %v outside [0, 1]", name, rate)
	}
	if delay < 0 {
		return fmt.Errorf("fault: point %s negative delay %v", name, delay)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.points[name] = &point{rate: rate, delay: delay}
	return nil
}

// SetLimit caps how many times a configured point fires; after limit
// fires it goes quiet. Used by tests to script "panic n times, then
// recover" schedules. The point must already be Set.
func (r *Registry) SetLimit(name string, limit uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.points[name]
	if !ok {
		return fmt.Errorf("fault: SetLimit on unconfigured point %q", name)
	}
	p.limit = limit
	return nil
}

// Parse builds a registry from the -fault-profile grammar:
// "point:rate[:duration]" entries separated by ';' (or ','). An empty
// profile yields an empty registry (installing it is a no-op profile,
// though callers normally skip Install entirely).
func Parse(profile string, seed int64) (*Registry, error) {
	r := New(seed)
	for _, entry := range strings.FieldsFunc(profile, func(c rune) bool { return c == ';' || c == ',' }) {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("fault: bad profile entry %q (want point:rate[:duration])", entry)
		}
		rate, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("fault: bad rate in %q: %v", entry, err)
		}
		var delay time.Duration
		if len(parts) == 3 {
			delay, err = time.ParseDuration(parts[2])
			if err != nil {
				return nil, fmt.Errorf("fault: bad duration in %q: %v", entry, err)
			}
		}
		if err := r.Set(parts[0], rate, delay); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// MustParse is Parse for tests and package-level defaults; it panics on
// a malformed profile.
func MustParse(profile string, seed int64) *Registry {
	r, err := Parse(profile, seed)
	if err != nil {
		panic(err)
	}
	return r
}

// decide draws the next decision for name: deterministic in
// (seed, name, decision#). Returns whether the point fired and its
// configured delay.
func (r *Registry) decide(name string) (bool, time.Duration) {
	r.mu.Lock()
	p, ok := r.points[name]
	if !ok {
		r.mu.Unlock()
		return false, 0
	}
	n := p.decisions
	p.decisions++
	fire := schedule(r.seed, name, n) < p.rate
	if fire && p.limit > 0 && p.fired >= p.limit {
		fire = false
	}
	if fire {
		p.fired++
	}
	d := p.delay
	r.mu.Unlock()
	return fire, d
}

// schedule maps (seed, point, n) to a uniform draw in [0, 1) via FNV-64a.
func schedule(seed int64, name string, n uint64) float64 {
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(seed) >> (8 * i))
		buf[8+i] = byte(n >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(name))
	return float64(h.Sum64()>>11) / float64(uint64(1)<<53)
}

// PointStats is one point's consult/fire tally, surfaced in /v1/stats
// so chaos runs can assert the schedule actually engaged.
type PointStats struct {
	Rate      float64 `json:"rate"`
	Decisions uint64  `json:"decisions"`
	Fired     uint64  `json:"fired"`
	DelayMS   float64 `json:"delay_ms,omitempty"`
}

// Snapshot returns per-point tallies.
func (r *Registry) Snapshot() map[string]PointStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]PointStats, len(r.points))
	for name, p := range r.points {
		out[name] = PointStats{
			Rate:      p.rate,
			Decisions: p.decisions,
			Fired:     p.fired,
			DelayMS:   float64(p.delay) / float64(time.Millisecond),
		}
	}
	return out
}

// Seed returns the registry's schedule seed.
func (r *Registry) Seed() int64 { return r.seed }

// The globally installed registry. Hot paths pay one atomic load when
// no registry is installed.
var active atomic.Pointer[Registry]

// Install makes r the globally consulted registry.
func Install(r *Registry) { active.Store(r) }

// Uninstall removes the global registry; all points go quiet.
func Uninstall() { active.Store(nil) }

// Hit reports whether the named point fires on this decision.
func Hit(name string) bool {
	r := active.Load()
	if r == nil {
		return false
	}
	fire, _ := r.decide(name)
	return fire
}

// Delay sleeps the point's configured duration when the named point
// fires. Points configured without a duration default to 5ms so a
// profile like "sim.stall:0.5" still visibly stalls.
func Delay(name string) {
	r := active.Load()
	if r == nil {
		return
	}
	fire, d := r.decide(name)
	if !fire {
		return
	}
	if d <= 0 {
		d = 5 * time.Millisecond
	}
	time.Sleep(d)
}

// Snapshot returns the installed registry's per-point tallies, or nil
// when injection is off.
func Snapshot() map[string]PointStats {
	r := active.Load()
	if r == nil {
		return nil
	}
	return r.Snapshot()
}
