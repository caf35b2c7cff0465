package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestShingles(t *testing.T) {
	s := Shingles("assign y = a & b ;", 2)
	if _, ok := s["assign y"]; !ok {
		t.Errorf("missing shingle 'assign y': %v", s)
	}
	if _, ok := s["& b"]; !ok {
		t.Errorf("missing shingle '& b': %v", s)
	}
}

func TestShinglesShortInput(t *testing.T) {
	s := Shingles("assign", 4)
	if len(s) != 1 {
		t.Fatalf("short input should produce one shingle: %v", s)
	}
	if len(Shingles("", 3)) != 0 {
		t.Fatal("empty input should produce no shingles")
	}
}

func TestJaccardBasics(t *testing.T) {
	a := Shingles("assign y = a & b;", 2)
	if Jaccard(a, a) != 1 {
		t.Error("self similarity must be 1")
	}
	b := Shingles("always @(posedge clk) q <= d;", 2)
	if sim := Jaccard(a, b); sim > 0.2 {
		t.Errorf("unrelated code similarity %.2f too high", sim)
	}
	if Jaccard(map[string]struct{}{}, map[string]struct{}{}) != 1 {
		t.Error("two empty sets are identical by definition")
	}
}

func TestJaccardSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		a := randSet(rng)
		b := randSet(rng)
		if Jaccard(a, b) != Jaccard(b, a) {
			t.Fatal("Jaccard must be symmetric")
		}
		d := 1 - Jaccard(a, b)
		if d < 0 || d > 1 {
			t.Fatalf("distance %f out of [0,1]", d)
		}
	}
}

func randSet(rng *rand.Rand) map[string]struct{} {
	out := map[string]struct{}{}
	n := rng.Intn(20)
	for i := 0; i < n; i++ {
		out[fmt.Sprintf("tok%d", rng.Intn(30))] = struct{}{}
	}
	return out
}

// TestDBSCANTwoBlobs clusters two well-separated groups plus an outlier.
func TestDBSCANTwoBlobs(t *testing.T) {
	// 1-D points: cluster A around 0, cluster B around 10, outlier at 100.
	points := []float64{0, 0.1, 0.2, 0.3, 10, 10.1, 10.2, 100}
	dist := func(i, j int) float64 {
		d := points[i] - points[j]
		if d < 0 {
			d = -d
		}
		return d
	}
	labels := DBSCAN(len(points), dist, 0.5, 2)
	if labels[0] != labels[1] || labels[1] != labels[2] || labels[2] != labels[3] {
		t.Errorf("cluster A fragmented: %v", labels)
	}
	if labels[4] != labels[5] || labels[5] != labels[6] {
		t.Errorf("cluster B fragmented: %v", labels)
	}
	if labels[0] == labels[4] {
		t.Errorf("clusters merged: %v", labels)
	}
	if labels[7] != Noise {
		t.Errorf("outlier not noise: %v", labels)
	}
}

func TestDBSCANAllNoise(t *testing.T) {
	points := []float64{0, 10, 20, 30}
	dist := func(i, j int) float64 {
		d := points[i] - points[j]
		if d < 0 {
			d = -d
		}
		return d
	}
	labels := DBSCAN(len(points), dist, 1, 2)
	for i, l := range labels {
		if l != Noise {
			t.Errorf("point %d should be noise, got %d", i, l)
		}
	}
}

func TestDBSCANSingleCluster(t *testing.T) {
	n := 20
	dist := func(i, j int) float64 { return 0.01 }
	labels := DBSCAN(n, dist, 0.5, 3)
	for i := 1; i < n; i++ {
		if labels[i] != labels[0] {
			t.Fatalf("all points should share one cluster: %v", labels)
		}
	}
}

func TestDBSCANEmpty(t *testing.T) {
	labels := DBSCAN(0, func(i, j int) float64 { return 0 }, 0.5, 2)
	if len(labels) != 0 {
		t.Fatal("empty input should give empty labels")
	}
}

func TestRepresentativesOnePerClusterPlusNoise(t *testing.T) {
	points := []float64{0, 0.1, 0.2, 10, 10.1, 100}
	dist := func(i, j int) float64 {
		d := points[i] - points[j]
		if d < 0 {
			d = -d
		}
		return d
	}
	labels := DBSCAN(len(points), dist, 0.5, 2)
	reps := Representatives(labels, dist)
	// two clusters -> 2 reps, plus the noise point
	if len(reps) != 3 {
		t.Fatalf("got %d representatives (%v), want 3", len(reps), reps)
	}
	seen := map[int]bool{}
	for _, r := range reps {
		seen[labels[r]] = true
	}
	if !seen[Noise] {
		t.Error("noise point must be kept")
	}
}

// TestDBSCANDeterministic verifies stable output across runs.
func TestDBSCANDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	points := make([]float64, 40)
	for i := range points {
		points[i] = rng.Float64() * 20
	}
	dist := func(i, j int) float64 {
		d := points[i] - points[j]
		if d < 0 {
			d = -d
		}
		return d
	}
	first := DBSCAN(len(points), dist, 1.0, 3)
	second := DBSCAN(len(points), dist, 1.0, 3)
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("DBSCAN not deterministic")
		}
	}
}

// TestSimilarCodeClusters is the end-use property: near-duplicate Verilog
// fragments cluster together, distinct ones do not.
func TestSimilarCodeClusters(t *testing.T) {
	variants := []string{
		"module m(input a, output y); assign y = ~a; endmodule",
		"module m(input a, output y); assign y = ~a ; endmodule",
		"module m(input a, output y);\n assign y = ~a;\nendmodule",
		"module c(input clk, input rst, output reg [7:0] q); always @(posedge clk) q <= rst ? 0 : q + 1; endmodule",
		"module c(input clk, input rst, output reg [7:0] q); always @(posedge clk) q <= rst ? 8'h00 : q + 1; endmodule",
	}
	sets := InternShingles(variants, 3)
	dist := func(i, j int) float64 { return SetJaccardDistance(sets[i], sets[j]) }
	labels := DBSCAN(len(variants), dist, 0.4, 2)
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Errorf("near-duplicates split: %v", labels)
	}
	if labels[3] != labels[4] {
		t.Errorf("counter variants split: %v", labels)
	}
	if labels[0] == labels[3] && labels[0] != Noise {
		t.Errorf("distinct circuits merged: %v", labels)
	}
}
