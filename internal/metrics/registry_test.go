package metrics

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestRegistryRendersBothSurfaces: one declaration per family, and the
// exposition and the JSON document agree on every value.
func TestRegistryRendersBothSurfaces(t *testing.T) {
	var r Registry
	r.Counter("req_total", "Requests.", "requests.all").Add(3)
	codes := r.CounterVec("resp_total", "Responses by code.", "code")
	codes.Sparse("status.200", "200").Add(2)
	codes.Sparse("status.500", "500") // never counts: absent on both surfaces
	r.Gauge("depth", "Queue depth.", "queue.depth").Set(4)
	r.Flag("ready", "1 when ready.", "ready", func() bool { return true })
	r.GaugeFunc("uptime_seconds", "Uptime.", "", func() float64 { return 1.5 })
	r.Histogram("lat_ms", "Latency.", "latency_ms", NewLatencyHistogram()).Observe(3)
	r.Derived("requests.per_response", func() float64 { return 1.5 })

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	samples, types := parseProm(t, b.String())
	wantTypes := map[string]string{"req_total": "counter", "resp_total": "counter", "depth": "gauge",
		"ready": "gauge", "uptime_seconds": "gauge", "lat_ms": "histogram"}
	if !reflect.DeepEqual(types, wantTypes) {
		t.Fatalf("types = %v, want %v", types, wantTypes)
	}
	for key, want := range map[string]float64{
		"req_total": 3, `resp_total{code="200"}`: 2, "depth": 4, "ready": 1, "uptime_seconds": 1.5, "lat_ms_count": 1,
	} {
		if got, ok := samples[key]; !ok || got != want {
			t.Errorf("sample %s = %v (present %v), want %v", key, got, ok, want)
		}
	}
	if _, ok := samples[`resp_total{code="500"}`]; ok {
		t.Error("sparse series rendered before it counted")
	}

	data, err := json.Marshal(r.JSON())
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	want := `{"latency_ms":{"count":1},"queue":{"depth":4},"ready":true,` +
		`"requests":{"all":3,"per_response":1.5},"status":{"200":2}}`
	lat := doc["latency_ms"].(map[string]any)
	doc["latency_ms"] = map[string]any{"count": lat["count"]}
	if got, _ := json.Marshal(doc); string(got) != want {
		t.Fatalf("JSON = %s, want %s", got, want)
	}

	var paths []string
	for _, f := range r.Families() {
		paths = append(paths, f.Paths...)
	}
	wantPaths := []string{"requests.all", "status.200", "queue.depth", "ready", "latency_ms"}
	if !reflect.DeepEqual(paths, wantPaths) {
		t.Fatalf("family paths = %v, want %v", paths, wantPaths)
	}
}

// TestRegistrySparseKeepsParentObject: a labelled family whose series
// have not counted yet still renders its (empty) JSON object, so the
// document's shape does not depend on traffic.
func TestRegistrySparseKeepsParentObject(t *testing.T) {
	var r Registry
	r.CounterVec("resp_total", "Responses by code.", "code").Sparse("status.200", "200")
	data, _ := json.Marshal(r.JSON())
	if string(data) != `{"status":{}}` {
		t.Fatalf("JSON = %s", data)
	}
}

func TestRegistryLabelArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched label values did not panic")
		}
	}()
	var r Registry
	r.CounterVec("events_total", "Events.", "layer", "event").Counter("x", "compile")
}
