package metrics

import (
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// parseProm is a minimal exposition-format parser for round-trip
// assertions: it returns sample values keyed by "name{labels}" (labels
// sorted), plus the TYPE declared for each family. It understands the
// subset PromWriter emits and fails the test on anything malformed.
func parseProm(t *testing.T, text string) (samples map[string]float64, types map[string]string) {
	t.Helper()
	samples = map[string]float64{}
	types = map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			if len(strings.Fields(line)) < 4 {
				t.Fatalf("malformed HELP line: %q", line)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line: %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		var val float64
		switch valStr {
		case "+Inf":
			val = math.Inf(1)
		case "-Inf":
			val = math.Inf(-1)
		default:
			v, err := strconv.ParseFloat(valStr, 64)
			if err != nil {
				t.Fatalf("bad value in %q: %v", line, err)
			}
			val = v
		}
		samples[normalizeKey(t, key)] = val
	}
	return samples, types
}

// normalizeKey sorts the label pairs inside name{...} so lookups are
// order-independent, respecting escapes inside quoted values.
func normalizeKey(t *testing.T, key string) string {
	t.Helper()
	open := strings.IndexByte(key, '{')
	if open < 0 {
		return key
	}
	if !strings.HasSuffix(key, "}") {
		t.Fatalf("unterminated label set: %q", key)
	}
	body := key[open+1 : len(key)-1]
	var labels []string
	for i := 0; i < len(body); {
		eq := strings.IndexByte(body[i:], '=')
		if eq < 0 || i+eq+1 >= len(body) || body[i+eq+1] != '"' {
			t.Fatalf("malformed labels: %q", body)
		}
		j := i + eq + 2 // first char inside the quotes
		for j < len(body) && body[j] != '"' {
			if body[j] == '\\' {
				j++
			}
			j++
		}
		if j >= len(body) {
			t.Fatalf("unterminated label value: %q", body)
		}
		labels = append(labels, body[i:j+1])
		i = j + 1
		if i < len(body) && body[i] == ',' {
			i++
		}
	}
	sort.Strings(labels)
	return key[:open] + "{" + strings.Join(labels, ",") + "}"
}

func TestPromCountersAndGauges(t *testing.T) {
	var r Registry
	r.Counter("fix_requests_total", "Fix requests received.", "").Add(42)
	codes := r.CounterVec("http_responses_total", "Responses by status.", "code")
	codes.Counter("", "200").Add(40)
	codes.Counter("", "429").Add(2)
	r.Gauge("queue_depth", "Admitted, waiting.", "").Set(3)
	r.CounterVec("cache_events_total", "By layer.", "layer") // empty family: headers only
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	samples, types := parseProm(t, b.String())
	if types["fix_requests_total"] != "counter" || types["queue_depth"] != "gauge" {
		t.Fatalf("types = %v", types)
	}
	if types["cache_events_total"] != "counter" {
		t.Fatal("empty family did not emit its TYPE header")
	}
	if samples["fix_requests_total"] != 42 {
		t.Fatalf("counter = %v", samples["fix_requests_total"])
	}
	if samples[`http_responses_total{code="200"}`] != 40 || samples[`http_responses_total{code="429"}`] != 2 {
		t.Fatalf("labeled counters: %v", samples)
	}
	if samples["queue_depth"] != 3 {
		t.Fatalf("gauge = %v", samples["queue_depth"])
	}
}

// TestPromEmptyHistogram: an empty histogram must still expose the
// mandatory +Inf bucket with a zero cumulative count, zero sum, zero
// count — not vanish from the scrape.
func TestPromEmptyHistogram(t *testing.T) {
	var r Registry
	r.Histogram("fix_latency_ms", "Fix latency.", "", NewLatencyHistogram())
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	samples, types := parseProm(t, b.String())
	if types["fix_latency_ms"] != "histogram" {
		t.Fatalf("types = %v", types)
	}
	if got := samples[`fix_latency_ms_bucket{le="+Inf"}`]; got != 0 {
		t.Fatalf("+Inf bucket = %v, want 0", got)
	}
	if samples["fix_latency_ms_sum"] != 0 || samples["fix_latency_ms_count"] != 0 {
		t.Fatalf("sum/count: %v", samples)
	}
}

// TestPromHistogramCumulative: buckets must be cumulative, and the +Inf
// bucket's cumulative count must equal the total observation count even
// when the overflow cell itself is empty.
func TestPromHistogramCumulative(t *testing.T) {
	h := NewHistogram(1, 2, 3) // edges 1, 2, 4, +Inf
	for _, v := range []float64{0.5, 0.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	var r Registry
	r.Histogram("lat_ms", "latencies", "", h)
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	samples, _ := parseProm(t, b.String())
	if got := samples[`lat_ms_bucket{le="1"}`]; got != 2 {
		t.Fatalf("le=1 cumulative = %v, want 2", got)
	}
	if got := samples[`lat_ms_bucket{le="2"}`]; got != 3 {
		t.Fatalf("le=2 cumulative = %v, want 3", got)
	}
	if got := samples[`lat_ms_bucket{le="4"}`]; got != 4 {
		t.Fatalf("le=4 cumulative = %v, want 4", got)
	}
	if got := samples[`lat_ms_bucket{le="+Inf"}`]; got != 5 {
		t.Fatalf("+Inf cumulative = %v, want 5 (total count)", got)
	}
	if samples["lat_ms_count"] != 5 || samples["lat_ms_sum"] != 105.5 {
		t.Fatalf("sum/count: %v", samples)
	}

	// All values under the last finite edge: the overflow bucket is
	// empty, but +Inf must still appear with the total.
	h2 := NewHistogram(1, 2, 3)
	h2.Observe(0.5)
	var r2 Registry
	r2.Histogram("lat2_ms", "latencies", "", h2)
	b.Reset()
	if err := r2.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	samples2, _ := parseProm(t, b.String())
	if got := samples2[`lat2_ms_bucket{le="+Inf"}`]; got != 1 {
		t.Fatalf("+Inf with empty overflow = %v, want 1", got)
	}
}

func TestPromLabelEscaping(t *testing.T) {
	var b strings.Builder
	p := NewPromWriter(&b)
	hairy := "a\\b\"c\nd"
	p.CounterVec("findings_total", "By rule; help with \\ and\nnewline.", []PromSample{
		{Labels: []PromLabel{{Name: "rule", Value: hairy}}, Value: 7},
	})
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if strings.Count(text, "\n") != 3 {
		t.Fatalf("escapes leaked a raw newline:\n%q", text)
	}
	if !strings.Contains(text, `rule="a\\b\"c\nd"`) {
		t.Fatalf("label not escaped: %q", text)
	}
	if !strings.Contains(text, `# HELP findings_total By rule; help with \\ and\nnewline.`) {
		t.Fatalf("help not escaped: %q", text)
	}
	samples, _ := parseProm(t, text)
	if got := samples[`findings_total{rule="a\\b\"c\nd"}`]; got != 7 {
		t.Fatalf("escaped sample lost: %v", samples)
	}
}

// TestPromScrapeRoundTrip builds a realistic multi-family scrape,
// parses it back, and asserts every value survives — the
// scrape-then-parse gate the satellite task names.
func TestPromScrapeRoundTrip(t *testing.T) {
	h := NewLatencyHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(float64(i))
	}
	var r Registry
	r.Counter("fix_requests_total", "Fix requests.", "").Add(123)
	cache := r.CounterVec("cache_events_total", "Cache events by layer and kind.", "layer", "event")
	cache.Counter("", "compile", "hit").Add(50)
	cache.Func("", func() float64 { return 5 }, "compile", "miss")
	r.Gauge("in_flight", "Running now.", "").Set(2)
	r.HistogramsFunc("stage_duration_ms", "Per-stage span durations.", func() []PromHistSeries {
		return []PromHistSeries{
			{Labels: []PromLabel{{Name: "stage", Value: "compile"}}, Snap: h.Snapshot()},
			{Labels: []PromLabel{{Name: "stage", Value: "sim"}}, Snap: NewLatencyHistogram().Snapshot()},
		}
	})
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	samples, types := parseProm(t, b.String())

	wantTypes := map[string]string{
		"fix_requests_total": "counter", "cache_events_total": "counter",
		"in_flight": "gauge", "stage_duration_ms": "histogram",
	}
	for name, typ := range wantTypes {
		if types[name] != typ {
			t.Fatalf("TYPE %s = %q, want %q", name, types[name], typ)
		}
	}
	if samples["fix_requests_total"] != 123 || samples["in_flight"] != 2 {
		t.Fatalf("scalar samples: %v", samples)
	}
	if samples[`cache_events_total{event="hit",layer="compile"}`] != 50 {
		t.Fatalf("labeled counter lost: %v", samples)
	}
	if got := samples[`stage_duration_ms_bucket{le="+Inf",stage="compile"}`]; got != 100 {
		t.Fatalf("compile +Inf = %v, want 100", got)
	}
	if got := samples[`stage_duration_ms_count{stage="compile"}`]; got != 100 {
		t.Fatalf("compile count = %v", got)
	}
	if got := samples[`stage_duration_ms_sum{stage="compile"}`]; got != 4950 {
		t.Fatalf("compile sum = %v, want 4950", got)
	}
	if got := samples[`stage_duration_ms_bucket{le="+Inf",stage="sim"}`]; got != 0 {
		t.Fatalf("empty sim series +Inf = %v, want 0", got)
	}

	// Cumulative monotonicity across every bucket family in the scrape.
	byFamily := map[string][]struct {
		le  float64
		cum float64
	}{}
	for key, val := range samples {
		if !strings.Contains(key, "_bucket{") {
			continue
		}
		leStart := strings.Index(key, `le="`)
		leEnd := strings.Index(key[leStart+4:], `"`)
		leStr := key[leStart+4 : leStart+4+leEnd]
		le := math.Inf(1)
		if leStr != "+Inf" {
			v, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				t.Fatalf("bucket le %q: %v", leStr, err)
			}
			le = v
		}
		fam := key[:strings.IndexByte(key, '{')] + stripLE(key)
		byFamily[fam] = append(byFamily[fam], struct{ le, cum float64 }{le, val})
	}
	for fam, buckets := range byFamily {
		sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
		for i := 1; i < len(buckets); i++ {
			if buckets[i].cum < buckets[i-1].cum {
				t.Fatalf("%s: cumulative count decreases at le=%v", fam, buckets[i].le)
			}
		}
	}
}

// stripLE isolates the non-le labels of a bucket key so buckets group
// into series.
func stripLE(key string) string {
	open := strings.IndexByte(key, '{')
	body := key[open+1 : len(key)-1]
	var keep []string
	for _, part := range strings.Split(body, ",") {
		if !strings.HasPrefix(part, `le="`) {
			keep = append(keep, part)
		}
	}
	return "{" + strings.Join(keep, ",") + "}"
}

func TestBucketJSONRoundTrip(t *testing.T) {
	h := NewHistogram(1, 2, 2)
	h.Observe(0.5)
	h.Observe(100)
	snap := h.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back HistogramSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Buckets) != len(snap.Buckets) {
		t.Fatalf("buckets = %d, want %d", len(back.Buckets), len(snap.Buckets))
	}
	for i := range snap.Buckets {
		w, g := snap.Buckets[i], back.Buckets[i]
		if w.Count != g.Count {
			t.Fatalf("bucket %d count %d != %d", i, g.Count, w.Count)
		}
		if math.IsInf(w.UpperBound, 1) != math.IsInf(g.UpperBound, 1) {
			t.Fatalf("bucket %d infinity mismatch", i)
		}
		if !math.IsInf(w.UpperBound, 1) && w.UpperBound != g.UpperBound {
			t.Fatalf("bucket %d edge %v != %v", i, g.UpperBound, w.UpperBound)
		}
	}
}
