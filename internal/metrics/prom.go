// Prometheus text-format exposition (version 0.0.4) over the live
// serving metrics: counters, gauges, and the fixed-bucket histograms,
// rendered family-at-a-time with # HELP/# TYPE headers, escaped labels,
// and cumulative histogram buckets ending at +Inf. Standard-library
// only, like everything else here — the scrape surface is a writer, not
// a client dependency.
package metrics

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// PromContentType is the Content-Type a /metrics handler should serve.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromLabel is one label pair on a sample.
type PromLabel struct {
	Name, Value string
}

// PromSample is one labeled sample of a counter or gauge family.
type PromSample struct {
	Labels []PromLabel
	Value  float64
}

// PromHistSeries is one labeled histogram series within a family.
type PromHistSeries struct {
	Labels []PromLabel
	Snap   HistogramSnapshot
}

// PromWriter renders metric families to w. Errors are sticky: the first
// write failure is retained and later calls are no-ops, so callers check
// Err once at the end.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// header emits the # HELP / # TYPE preamble for one family.
func (p *PromWriter) header(name, typ, help string) {
	p.printf("# HELP %s %s\n", name, escapeHelp(help))
	p.printf("# TYPE %s %s\n", name, typ)
}

// sample emits one "name{labels} value" line.
func (p *PromWriter) sample(name string, labels []PromLabel, value float64) {
	p.printf("%s%s %s\n", name, renderLabels(labels), formatValue(value))
}

// CounterVec emits a counter family with one sample per label set.
// Empty families still emit their headers, so scrapers see the full
// metric surface from the first scrape.
func (p *PromWriter) CounterVec(name, help string, samples []PromSample) {
	p.header(name, "counter", help)
	for _, s := range samples {
		p.sample(name, s.Labels, s.Value)
	}
}

// GaugeVec emits a gauge family with one sample per label set.
func (p *PromWriter) GaugeVec(name, help string, samples []PromSample) {
	p.header(name, "gauge", help)
	for _, s := range samples {
		p.sample(name, s.Labels, s.Value)
	}
}

// HistogramVec emits a histogram family with one bucket/sum/count series
// per label set. Buckets are cumulative and always end with le="+Inf"
// equal to the series count — including for an empty histogram, which
// renders a lone zero +Inf bucket, zero sum, zero count (the shape
// Prometheus clients expect, not an absent family).
func (p *PromWriter) HistogramVec(name, help string, series []PromHistSeries) {
	p.header(name, "histogram", help)
	for _, hs := range series {
		cum := uint64(0)
		sawInf := false
		for _, b := range hs.Snap.Buckets {
			cum += b.Count
			le := "+Inf"
			if !math.IsInf(b.UpperBound, 1) {
				le = formatValue(b.UpperBound)
			} else {
				sawInf = true
			}
			p.sample(name+"_bucket", withLE(hs.Labels, le), float64(cum))
		}
		if !sawInf {
			// Snapshot buckets omit empty cells; the +Inf bucket is
			// mandatory and its cumulative count is the total count.
			p.sample(name+"_bucket", withLE(hs.Labels, "+Inf"), float64(hs.Snap.Count))
		}
		p.sample(name+"_sum", hs.Labels, hs.Snap.Sum)
		p.sample(name+"_count", hs.Labels, float64(hs.Snap.Count))
	}
}

// withLE appends the bucket boundary label, after the series labels as
// convention has it.
func withLE(labels []PromLabel, le string) []PromLabel {
	out := make([]PromLabel, 0, len(labels)+1)
	out = append(out, labels...)
	return append(out, PromLabel{Name: "le", Value: le})
}

func renderLabels(labels []PromLabel) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a sample value: integers without an exponent or
// trailing zeros, everything else in Go's shortest round-trip form, and
// infinities in the +Inf/-Inf spelling the format requires.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatInt(int64(v), 10)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// escapeLabelValue applies the exposition-format label escapes:
// backslash, double quote, and line feed.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp applies the HELP-text escapes: backslash and line feed
// (quotes are legal there).
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
