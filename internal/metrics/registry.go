// Metric registry: each live family is declared once — Prometheus name
// and help, kind, optional labels, and its path in a JSON stats document
// — and both monitoring surfaces render from that declaration: WriteProm
// through PromWriter, JSON as a nested document. A declaration returns
// the live handle (or takes a read function for a value another package
// owns), so an increment on the hot path stays one atomic add.
package metrics

import (
	"io"
	"strings"
)

// Kind is a family's Prometheus type.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Registry holds families in declaration order, which is also the
// exposition order. Declare everything before rendering; rendering is
// safe concurrently with itself and with handle updates.
type Registry struct {
	fams    []*family
	derived []*series // JSON-only values
}

type family struct {
	name, help string
	kind       Kind
	labels     []string
	series     []*series
	// dynamic lists a histogram family's series at render time, for a
	// label set not known at declaration.
	dynamic func() []PromHistSeries
}

type series struct {
	values []string // label values, parallel to family.labels
	path   string   // dotted JSON path; "" renders on /metrics only
	read   func() float64
	hist   *Histogram
	flag   bool // JSON renders the 0/1 value as a bool
	sparse bool // rendered on neither surface while zero
}

func (r *Registry) add(name, help string, kind Kind, labels []string, s ...*series) *family {
	f := &family{name: name, help: help, kind: kind, labels: labels, series: s}
	r.fams = append(r.fams, f)
	return f
}

// Counter declares an unlabelled counter rendered at path.
func (r *Registry) Counter(name, help, path string) *Counter {
	c := &Counter{}
	r.CounterFunc(name, help, path, func() float64 { return float64(c.Value()) })
	return c
}

// CounterFunc declares an unlabelled counter whose total f reads.
func (r *Registry) CounterFunc(name, help, path string, f func() float64) {
	r.add(name, help, KindCounter, nil, &series{path: path, read: f})
}

// Gauge declares an unlabelled gauge rendered at path.
func (r *Registry) Gauge(name, help, path string) *Gauge {
	g := &Gauge{}
	r.GaugeFunc(name, help, path, func() float64 { return float64(g.Value()) })
	return g
}

// GaugeFunc declares an unlabelled gauge whose level f reads.
func (r *Registry) GaugeFunc(name, help, path string, f func() float64) {
	r.add(name, help, KindGauge, nil, &series{path: path, read: f})
}

// Flag declares a 0/1 gauge that the JSON document renders as a bool.
func (r *Registry) Flag(name, help, path string, f func() bool) {
	r.add(name, help, KindGauge, nil, &series{path: path, flag: true, read: func() float64 {
		if f() {
			return 1
		}
		return 0
	}})
}

// Histogram declares an unlabelled histogram rendered at path (as its
// snapshot) and returns h.
func (r *Registry) Histogram(name, help, path string, h *Histogram) *Histogram {
	r.add(name, help, KindHistogram, nil, &series{path: path, hist: h})
	return h
}

// HistogramsFunc declares a histogram family whose labelled series f
// lists at render time. It renders on /metrics only; its JSON form is a
// document the caller assembles.
func (r *Registry) HistogramsFunc(name, help string, f func() []PromHistSeries) {
	r.add(name, help, KindHistogram, nil).dynamic = f
}

// Derived declares a JSON-only value computed from other families — a
// ratio or rollup a Prometheus user computes in the query instead, or a
// family's value in another unit.
func (r *Registry) Derived(path string, f func() float64) {
	r.derived = append(r.derived, &series{path: path, read: f})
}

// CounterVec declares a counter family with the given label names; its
// series are declared one by one on the returned Vec.
func (r *Registry) CounterVec(name, help string, labels ...string) *Vec {
	return &Vec{r.add(name, help, KindCounter, labels)}
}

// Vec declares the series of one labelled family.
type Vec struct{ f *family }

// Counter declares the series with the given label values, rendered at
// path, and returns its handle.
func (v *Vec) Counter(path string, values ...string) *Counter {
	c := &Counter{}
	v.Func(path, func() float64 { return float64(c.Value()) }, values...)
	return c
}

// Sparse is Counter for a series neither surface shows until it first
// counts (an open-ended label space, such as status codes).
func (v *Vec) Sparse(path string, values ...string) *Counter {
	c := v.Counter(path, values...)
	v.f.series[len(v.f.series)-1].sparse = true
	return c
}

// Func declares a series whose value f reads.
func (v *Vec) Func(path string, f func() float64, values ...string) {
	if len(values) != len(v.f.labels) {
		panic("metrics: " + v.f.name + ": label values do not match label names")
	}
	v.f.series = append(v.f.series, &series{values: values, path: path, read: f})
}

// shown reports whether the series renders now, and its value (0 for a
// histogram, which always renders).
func (s *series) shown() (float64, bool) {
	if s.hist != nil {
		return 0, true
	}
	v := s.read()
	return v, v != 0 || !s.sparse
}

// WriteProm renders every family in Prometheus text exposition format.
func (r *Registry) WriteProm(w io.Writer) error {
	p := NewPromWriter(w)
	for _, f := range r.fams {
		if f.kind == KindHistogram {
			var hs []PromHistSeries
			if f.dynamic != nil {
				hs = f.dynamic()
			}
			for _, s := range f.series {
				hs = append(hs, PromHistSeries{Snap: s.hist.Snapshot()})
			}
			p.HistogramVec(f.name, f.help, hs)
			continue
		}
		var samples []PromSample
		for _, s := range f.series {
			if v, ok := s.shown(); ok {
				sm := PromSample{Value: v}
				for i, name := range f.labels {
					sm.Labels = append(sm.Labels, PromLabel{Name: name, Value: s.values[i]})
				}
				samples = append(samples, sm)
			}
		}
		if f.kind == KindCounter {
			p.CounterVec(f.name, f.help, samples)
		} else {
			p.GaugeVec(f.name, f.help, samples)
		}
	}
	return p.Err()
}

// JSON renders every series that has a path into a fresh document,
// nesting objects along the dotted paths.
func (r *Registry) JSON() map[string]any {
	doc := map[string]any{}
	for _, f := range r.fams {
		for _, s := range f.series {
			s.putJSON(doc)
		}
	}
	for _, s := range r.derived {
		s.putJSON(doc)
	}
	return doc
}

// putJSON stores the series at its path in doc. A sparse series that has
// not counted yet still creates its parent object, so the document's
// shape does not depend on traffic.
func (s *series) putJSON(doc map[string]any) {
	if s.path == "" {
		return
	}
	keys := strings.Split(s.path, ".")
	parent, key := object(doc, keys[:len(keys)-1]), keys[len(keys)-1]
	switch v, ok := s.shown(); {
	case s.hist != nil:
		parent[key] = s.hist.Snapshot()
	case s.flag:
		parent[key] = v != 0
	case ok:
		parent[key] = v
	}
}

// Family is one declared family, as the renderers see it.
type Family struct {
	Name, Help string
	Kind       Kind
	// Paths are the JSON paths the family renders at now (a sparse
	// series that has not counted yet has none).
	Paths []string
}

// Families lists the declared families in declaration order.
func (r *Registry) Families() []Family {
	out := make([]Family, len(r.fams))
	for i, f := range r.fams {
		out[i] = Family{Name: f.name, Help: f.help, Kind: f.kind}
		for _, s := range f.series {
			if _, ok := s.shown(); ok && s.path != "" {
				out[i].Paths = append(out[i].Paths, s.path)
			}
		}
	}
	return out
}

// SetPath stores v at the dotted path in doc, creating the objects along
// the way.
func SetPath(doc map[string]any, path string, v any) {
	keys := strings.Split(path, ".")
	object(doc, keys[:len(keys)-1])[keys[len(keys)-1]] = v
}

// object returns the object at keys under doc, creating missing ones.
func object(doc map[string]any, keys []string) map[string]any {
	for _, k := range keys {
		next, ok := doc[k].(map[string]any)
		if !ok {
			next = map[string]any{}
			doc[k] = next
		}
		doc = next
	}
	return doc
}
