package metrics

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Inc()
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge = %d, want 1", got)
	}
	g.Set(-3)
	if got := g.Value(); got != -3 {
		t.Fatalf("gauge after Set = %d, want -3", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
}

func TestHistogramBucketFor(t *testing.T) {
	h := NewHistogram(1, 2, 4) // edges 1, 2, 4, 8 + overflow
	cases := []struct {
		v    float64
		want int
	}{
		{0.5, 0}, {1, 0}, {1.5, 1}, {2, 1}, {3, 2}, {8, 3}, {9, 4}, {1e9, 4},
	}
	for _, c := range cases {
		if got := h.bucketFor(c.v); got != c.want {
			t.Errorf("bucketFor(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewLatencyHistogram()
	// 1..1000 ms uniformly: quantiles should land near q*1000 despite
	// the exponential buckets (interpolation within buckets).
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	if got := h.quantileLocked(0); got != 1 {
		t.Fatalf("q0 = %v, want exact min 1", got)
	}
	if got := h.quantileLocked(1); got != 1000 {
		t.Fatalf("q1 = %v, want exact max 1000", got)
	}
	s := h.Snapshot()
	for q, got := range map[float64]float64{0.5: s.P50, 0.9: s.P90, 0.99: s.P99} {
		want := q * 1000
		// Doubling buckets bound the relative error by the bucket width.
		if got < want/2 || got > want*2 {
			t.Errorf("q%v = %v, want within [%v, %v]", q, got, want/2, want*2)
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewLatencyHistogram()
	s := h.Snapshot()
	if s.Count != 0 || s.P50 != 0 || len(s.Buckets) != 0 {
		t.Fatalf("empty snapshot = %+v, want zeros", s)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("empty snapshot does not marshal: %v", err)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	h := NewHistogram(1, 2, 4)
	for _, v := range []float64{0.5, 3, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	if s.Sum != 106.5 {
		t.Fatalf("sum = %v, want 106.5", s.Sum)
	}
	if s.Min != 0.5 || s.Max != 100 {
		t.Fatalf("min/max = %v/%v, want 0.5/100", s.Min, s.Max)
	}
	// Buckets: edge 1 → one obs, edge 4 → two, overflow → one.
	if len(s.Buckets) != 3 {
		t.Fatalf("buckets = %+v, want 3 non-empty", s.Buckets)
	}
	if s.Buckets[0].UpperBound != 1 || s.Buckets[0].Count != 1 {
		t.Errorf("bucket 0 = %+v", s.Buckets[0])
	}
	if s.Buckets[1].UpperBound != 4 || s.Buckets[1].Count != 2 {
		t.Errorf("bucket 1 = %+v", s.Buckets[1])
	}
	if !math.IsInf(s.Buckets[2].UpperBound, 1) || s.Buckets[2].Count != 1 {
		t.Errorf("overflow bucket = %+v", s.Buckets[2])
	}
	// The overflow bucket's +Inf edge must still marshal (as "+Inf").
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("snapshot with overflow bucket does not marshal: %v", err)
	}
	if !strings.Contains(string(data), `"+Inf"`) {
		t.Errorf("marshaled snapshot missing +Inf edge: %s", data)
	}
	if s.P50 < s.Min || s.P50 > s.Max {
		t.Errorf("p50 = %v outside [min, max]", s.P50)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewLatencyHistogram()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Observe(float64(w*500 + i + 1))
			}
		}(w)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != 2000 {
		t.Fatalf("count = %d, want 2000", got)
	}
}

func TestNewHistogramPanics(t *testing.T) {
	for _, bad := range []func(){
		func() { NewHistogram(0, 2, 4) },
		func() { NewHistogram(1, 1, 4) },
		func() { NewHistogram(1, 2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad histogram shape did not panic")
				}
			}()
			bad()
		}()
	}
}

func TestHistogramObserveClampsInvalid(t *testing.T) {
	h := NewLatencyHistogram()
	h.Observe(-5)
	h.Observe(math.NaN())
	h.Observe(2)
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3 (invalid observations must still count)", s.Count)
	}
	if s.Min != 0 {
		t.Fatalf("min = %v, want 0 (clamped)", s.Min)
	}
	if s.Sum != 2 {
		t.Fatalf("sum = %v, want 2 (clamped values contribute zero)", s.Sum)
	}
	if s.Max != 2 {
		t.Fatalf("max = %v, want 2", s.Max)
	}
	if math.IsNaN(s.P50) || math.IsNaN(s.P99) {
		t.Fatalf("quantiles poisoned by NaN observation: p50=%v p99=%v", s.P50, s.P99)
	}
}
