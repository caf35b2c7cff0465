// Package trace is the request-tracing layer of the serving spine: a
// lightweight, allocation-disciplined span tree per request, collected
// into a bounded ring of recent traces with separate retention for the
// slowest ones — the per-stage attribution the aggregate counters in
// /v1/stats cannot give. When a /v1/fix request is slow, its trace says
// whether the time went to queueing, the coalescing linger, an agent
// iteration, a compile, the post-fix simulation check, or retrieval.
//
// The design mirrors the staged-pipeline monitoring of the DAQ systems
// in PAPERS.md: every stage of the fan-in/fan-out path is timestamped at
// its boundaries, and the monitoring plane (collection, aggregation,
// exposition) never contends with the data plane beyond one short mutex
// per span operation.
//
// Tracing off is the nil value. A nil *Collector starts nil *Spans, and
// every Span method is a nil-receiver no-op, so instrumented code holds
// plain *Span fields and pays one predictable branch — zero allocations,
// zero locks — when tracing is disabled. The tests pin that contract
// with testing.AllocsPerRun.
//
// Concurrency: one trace's spans may be created and ended from several
// goroutines (the HTTP handler admits and waits while a pipeline worker
// runs the agent), so all tree mutations and reads go through the
// owning Trace's mutex. Spans may still be appended after the root ends
// (a deadline-expired request's background run); Get renders whatever
// the tree holds at read time.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one span attribute. Val is a string, int64, bool, or float64 —
// small scalar facts (cache_hit, iteration number, outcome), never
// payloads.
type Attr struct {
	Key string
	Val any
}

// Span is one timed operation in a trace tree. The zero value is not
// usable; spans are created by Collector.Start (roots) and Span.Child.
// All methods are safe on a nil receiver and do nothing — that is the
// tracing-off fast path.
type Span struct {
	name     string
	start    time.Time
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
	t        *Trace
}

// Child starts a nested span. Returns nil when s is nil, so call chains
// stay no-ops with tracing off.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now(), t: s.t}
	s.t.mu.Lock()
	s.children = append(s.children, c)
	s.t.mu.Unlock()
	return c
}

// End stamps the span's duration (first call wins). Ending a root span
// hands the finished trace to its collector.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	isRoot := t.root == s
	t.mu.Unlock()
	if isRoot {
		t.c.collect(t)
	}
}

// SetStr attaches a string attribute.
func (s *Span) SetStr(key, val string) { s.set(key, val) }

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, val int64) { s.set(key, val) }

// SetBool attaches a boolean attribute.
func (s *Span) SetBool(key string, val bool) { s.set(key, val) }

func (s *Span) set(key string, val any) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Val: val})
	s.t.mu.Unlock()
}

// TraceID returns the owning trace's identifier ("" on a nil span) —
// what the server echoes as the request ID header when tracing is on.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.t.id
}

// Trace is one request's span tree plus its collection bookkeeping.
type Trace struct {
	mu    sync.Mutex
	id    string
	start time.Time
	root  *Span
	c     *Collector
}

// ID returns the trace identifier.
func (t *Trace) ID() string { return t.id }

// Duration returns the root span's duration (zero until the root ends).
func (t *Trace) Duration() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.root.dur
}

// Walk visits every span depth-first under the trace mutex: name,
// duration, and whether the span has ended. Attribute slices are not
// exposed to keep the callback allocation-free; use JSON for full dumps.
func (t *Trace) Walk(fn func(name string, dur time.Duration, ended bool)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var rec func(s *Span)
	rec = func(s *Span) {
		fn(s.name, s.dur, s.ended)
		for _, c := range s.children {
			rec(c)
		}
	}
	rec(t.root)
}

// SpanJSON is one span rendered for the /v1/trace/{id} endpoint.
type SpanJSON struct {
	Name string `json:"name"`
	// StartMS is the span's start offset from the trace start.
	StartMS float64 `json:"start_ms"`
	// DurMS is zero for spans still open at render time.
	DurMS    float64        `json:"dur_ms"`
	Ended    bool           `json:"ended"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []SpanJSON     `json:"children,omitempty"`
}

// TraceJSON is the /v1/trace/{id} response body.
type TraceJSON struct {
	ID    string    `json:"id"`
	Start time.Time `json:"start"`
	DurMS float64   `json:"dur_ms"`
	Spans int       `json:"spans"`
	Root  SpanJSON  `json:"root"`
}

// JSON renders the tree as it stands (late spans from a background run
// appear once they are added).
func (t *Trace) JSON() TraceJSON {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	var rec func(s *Span) SpanJSON
	rec = func(s *Span) SpanJSON {
		n++
		j := SpanJSON{
			Name:    s.name,
			StartMS: float64(s.start.Sub(t.start)) / float64(time.Millisecond),
			DurMS:   float64(s.dur) / float64(time.Millisecond),
			Ended:   s.ended,
		}
		if len(s.attrs) > 0 {
			j.Attrs = make(map[string]any, len(s.attrs))
			for _, a := range s.attrs {
				j.Attrs[a.Key] = a.Val
			}
		}
		for _, c := range s.children {
			j.Children = append(j.Children, rec(c))
		}
		return j
	}
	root := rec(t.root)
	return TraceJSON{ID: t.id, Start: t.start, DurMS: root.DurMS, Spans: n, Root: root}
}

// Summary is one row of the /v1/trace listing.
type Summary struct {
	ID    string    `json:"id"`
	Root  string    `json:"root"`
	Start time.Time `json:"start"`
	DurMS float64   `json:"dur_ms"`
	Spans int       `json:"spans"`
	// Slow marks traces held by the slow-retention tier.
	Slow bool `json:"slow,omitempty"`
}

// Occupancy reports the collector's buffer state, served by /v1/healthz.
type Occupancy struct {
	Ring      int    `json:"ring"`
	RingCap   int    `json:"ring_cap"`
	Slow      int    `json:"slow"`
	SlowCap   int    `json:"slow_cap"`
	Collected uint64 `json:"collected"`
	// Started counts traces begun, including ones still open; Started -
	// Collected is the in-flight trace count.
	Started uint64 `json:"started"`
}

// Collector owns the bounded buffers of finished traces. A nil
// *Collector is the TraceOff implementation: Start returns nil and every
// downstream span operation is a no-op.
type Collector struct {
	mu   sync.Mutex
	ring []*Trace // newest at (next-1+len)%len once full
	next int
	// slow retains the slowest traces at or over threshold, kept sorted
	// ascending by duration so the minimum is always slot 0.
	slow      []*Trace
	slowCap   int
	threshold time.Duration
	collected uint64
	seq       atomic.Uint64
	onFinish  func(*Trace)
}

// Collector defaults.
const (
	DefaultRing          = 256
	DefaultSlowKeep      = 32
	DefaultSlowThreshold = 500 * time.Millisecond
)

// NewCollector builds a collector retaining the last ringSize finished
// traces plus the slowKeep slowest traces whose duration reached
// slowThreshold (so one slow request survives any burst of fast ones).
// Zero values select the defaults; slowKeep < 0 disables slow retention.
func NewCollector(ringSize, slowKeep int, slowThreshold time.Duration) *Collector {
	if ringSize <= 0 {
		ringSize = DefaultRing
	}
	if slowKeep == 0 {
		slowKeep = DefaultSlowKeep
	}
	if slowKeep < 0 {
		slowKeep = 0
	}
	if slowThreshold <= 0 {
		slowThreshold = DefaultSlowThreshold
	}
	return &Collector{
		ring:      make([]*Trace, 0, ringSize),
		slowCap:   slowKeep,
		threshold: slowThreshold,
	}
}

// SetOnFinish registers a hook called with every finished trace (after
// it is buffered) — the seam the server's stage-latency histograms hang
// from. Set before serving traffic; not synchronized with collect.
func (c *Collector) SetOnFinish(fn func(*Trace)) {
	if c == nil {
		return
	}
	c.onFinish = fn
}

// Start begins a new trace and returns its root span, or nil when c is
// nil (tracing off).
func (c *Collector) Start(name string) *Span {
	if c == nil {
		return nil
	}
	t := &Trace{
		id:    fmt.Sprintf("t-%06d", c.seq.Add(1)),
		start: time.Now(),
		c:     c,
	}
	t.root = &Span{name: name, start: t.start, t: t}
	return t.root
}

// collect buffers a finished trace and fires the finish hook.
func (c *Collector) collect(t *Trace) {
	dur := t.Duration()
	c.mu.Lock()
	c.collected++
	if len(c.ring) < cap(c.ring) {
		c.ring = append(c.ring, t)
	} else {
		c.ring[c.next] = t
		c.next = (c.next + 1) % cap(c.ring)
	}
	if c.slowCap > 0 && dur >= c.threshold {
		if len(c.slow) < c.slowCap {
			c.slow = append(c.slow, t)
			sort.Slice(c.slow, func(i, j int) bool { return c.slow[i].Duration() < c.slow[j].Duration() })
		} else if dur > c.slow[0].Duration() {
			c.slow[0] = t
			sort.Slice(c.slow, func(i, j int) bool { return c.slow[i].Duration() < c.slow[j].Duration() })
		}
	}
	c.mu.Unlock()
	if c.onFinish != nil {
		c.onFinish(t)
	}
}

// Get returns a buffered trace by ID (ring first, then slow retention).
func (c *Collector) Get(id string) (*Trace, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range c.ring {
		if t.id == id {
			return t, true
		}
	}
	for _, t := range c.slow {
		if t.id == id {
			return t, true
		}
	}
	return nil, false
}

// Summaries lists buffered traces, newest first, slow-retained traces
// included (deduplicated) and flagged. limit <= 0 means everything.
func (c *Collector) Summaries(limit int) []Summary {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	ring := make([]*Trace, len(c.ring))
	// Reorder the ring newest-first: entries before next are older.
	for i := range c.ring {
		ring[i] = c.ring[(c.next+len(c.ring)-1-i+len(c.ring))%len(c.ring)]
	}
	slow := append([]*Trace(nil), c.slow...)
	c.mu.Unlock()

	inRing := make(map[string]bool, len(ring))
	isSlow := make(map[string]bool, len(slow))
	for _, t := range slow {
		isSlow[t.ID()] = true
	}
	out := make([]Summary, 0, len(ring)+len(slow))
	add := func(t *Trace) {
		j := t.JSON()
		out = append(out, Summary{
			ID: j.ID, Root: j.Root.Name, Start: j.Start, DurMS: j.DurMS,
			Spans: j.Spans, Slow: isSlow[j.ID],
		})
	}
	for _, t := range ring {
		inRing[t.ID()] = true
		add(t)
	}
	// Slow traces evicted from the ring still appear, after it (they are
	// by definition older than everything the ring holds), slowest first.
	for i := len(slow) - 1; i >= 0; i-- {
		if !inRing[slow[i].ID()] {
			add(slow[i])
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Occupancy snapshots the buffer state.
func (c *Collector) Occupancy() Occupancy {
	if c == nil {
		return Occupancy{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Occupancy{
		Ring:      len(c.ring),
		RingCap:   cap(c.ring),
		Slow:      len(c.slow),
		SlowCap:   c.slowCap,
		Collected: c.collected,
		Started:   c.seq.Load(),
	}
}
