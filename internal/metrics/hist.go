// Live serving metrics for the fix service: a lock-free counter, a gauge,
// and a fixed-bucket exponential histogram for latency percentiles. These
// complement the paper-evaluation metrics in metrics.go: those score a
// finished batch, these observe a running server. Everything here is
// standard-library only (the repo's no-new-dependencies rule) and safe for
// concurrent use.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous level (queue depth, in-flight runs). It may
// go up and down but never below zero in correct use.
type Gauge struct{ v atomic.Int64 }

// Inc raises the level by one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec lowers the level by one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set forces the level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates observations into fixed exponential buckets and
// answers quantile queries by linear interpolation within the bucket that
// crosses the requested rank. The bucket layout is fixed at construction,
// so Observe is O(log buckets) and never allocates.
type Histogram struct {
	mu sync.Mutex
	// bounds[i] is the inclusive upper edge of bucket i; a final implicit
	// overflow bucket catches everything above bounds[len-1].
	bounds []float64
	counts []uint64
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// NewHistogram builds a histogram with n exponential buckets: the first
// upper edge is start, each subsequent edge is factor times the previous,
// plus an overflow bucket. Panics on nonsensical shapes so misconfiguration
// fails at startup, not at query time.
func NewHistogram(start, factor float64, n int) *Histogram {
	if n <= 0 || start <= 0 || factor <= 1 {
		panic("metrics: histogram needs n > 0, start > 0, factor > 1")
	}
	h := &Histogram{bounds: make([]float64, n), counts: make([]uint64, n+1)}
	edge := start
	for i := 0; i < n; i++ {
		h.bounds[i] = edge
		edge *= factor
	}
	return h
}

// NewLatencyHistogram is the serving default: millisecond observations
// from 0.25 ms to ~131 s (0.25 × 2^19) in doubling buckets plus
// overflow — fine enough at the fast end for cache hits, and the last
// finite edge sits just above the server's 2-minute deadline clamp.
func NewLatencyHistogram() *Histogram { return NewHistogram(0.25, 2, 20) }

// Observe records one value. Negative and NaN observations clamp to
// zero rather than poisoning the aggregate: a clock step backwards (NTP
// slew mid-request) or an arithmetic slip upstream should read as "a
// very fast event", not skew sum/min or vanish silently — the count
// must keep matching the number of events that actually happened.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || v < 0 {
		v = 0
	}
	i := h.bucketFor(v)
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// bucketFor finds the first bucket whose upper edge is >= v (binary
// search; the overflow bucket is len(bounds)).
func (h *Histogram) bucketFor(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] >= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// quantileLocked estimates the q-quantile (q in [0,1]) by walking the
// cumulative counts and interpolating linearly inside the crossing
// bucket. Exact min/max clamp the estimate, so q 0 and 1 are exact.
// Callers hold mu and have at least one observation.
func (h *Histogram) quantileLocked(q float64) float64 {
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.count)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.max
		if i < len(h.bounds) && h.bounds[i] < hi {
			hi = h.bounds[i]
		}
		if lo < h.min {
			lo = h.min
		}
		if hi < lo {
			hi = lo
		}
		est := lo + (hi-lo)*(rank-prev)/float64(c)
		return est
	}
	return h.max
}

// Bucket is one non-empty histogram cell in a snapshot.
type Bucket struct {
	// UpperBound is the bucket's inclusive upper edge in the observed
	// unit; +Inf for the overflow bucket.
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// MarshalJSON renders the overflow bucket's +Inf edge as the Prometheus
// convention "+Inf" (encoding/json rejects infinities as numbers).
func (b Bucket) MarshalJSON() ([]byte, error) {
	if math.IsInf(b.UpperBound, 1) {
		return []byte(fmt.Sprintf(`{"le":"+Inf","count":%d}`, b.Count)), nil
	}
	return []byte(fmt.Sprintf(`{"le":%g,"count":%d}`, b.UpperBound, b.Count)), nil
}

// UnmarshalJSON is MarshalJSON's inverse, accepting both the numeric
// edges and the "+Inf" overflow spelling — so snapshot consumers
// (loadgen's stage-breakdown table reads them from /v1/stats) can decode
// what the server serves.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var wire struct {
		LE    any    `json:"le"`
		Count uint64 `json:"count"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		return err
	}
	b.Count = wire.Count
	switch le := wire.LE.(type) {
	case float64:
		b.UpperBound = le
	case string:
		if le == "+Inf" {
			b.UpperBound = math.Inf(1)
			return nil
		}
		v, err := strconv.ParseFloat(le, 64)
		if err != nil {
			return fmt.Errorf("metrics: bucket edge %q: %w", le, err)
		}
		b.UpperBound = v
	default:
		return fmt.Errorf("metrics: bucket edge has type %T", wire.LE)
	}
	return nil
}

// HistogramSnapshot is a consistent point-in-time copy, shaped for JSON
// stats endpoints.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	// Buckets lists only non-empty cells, smallest edge first.
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram state and precomputes the standard
// serving percentiles. An empty histogram snapshots to all zeros (not
// NaN) so the result always marshals to valid JSON.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Count: h.count, Sum: h.sum}
	if h.count == 0 {
		return s
	}
	s.Min, s.Max = h.min, h.max
	s.P50 = h.quantileLocked(0.50)
	s.P90 = h.quantileLocked(0.90)
	s.P99 = h.quantileLocked(0.99)
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		s.Buckets = append(s.Buckets, Bucket{UpperBound: ub, Count: c})
	}
	return s
}
