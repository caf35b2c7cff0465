package cluster_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/curate"
	"repro/internal/dataset"
)

// referenceDBSCAN is the per-point DBSCAN the pair-once version replaced:
// each visited point scans all n points for its neighbours, so every
// unordered pair is measured twice. Kept as the oracle for DBSCAN.
func referenceDBSCAN(n int, dist func(i, j int) float64, eps float64, minPts int) []int {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = cluster.Noise
	}
	visited := make([]bool, n)

	neighbours := func(p int) []int {
		var out []int
		for q := 0; q < n; q++ {
			if dist(p, q) <= eps {
				out = append(out, q)
			}
		}
		return out
	}

	id := 0
	for p := 0; p < n; p++ {
		if visited[p] {
			continue
		}
		visited[p] = true
		nb := neighbours(p)
		if len(nb) < minPts {
			continue
		}
		labels[p] = id
		queue := append([]int(nil), nb...)
		for len(queue) > 0 {
			q := queue[0]
			queue = queue[1:]
			if labels[q] == cluster.Noise {
				labels[q] = id
			}
			if visited[q] {
				continue
			}
			visited[q] = true
			labels[q] = id
			qnb := neighbours(q)
			if len(qnb) >= minPts {
				queue = append(queue, qnb...)
			}
		}
		id++
	}
	return labels
}

// corpusDocs is every reference implementation plus the curated entries
// for seeds 5 and 2024, then empty and shorter-than-a-shingle inputs.
func corpusDocs(t *testing.T) []string {
	t.Helper()
	var docs []string
	for _, suite := range []dataset.Suite{dataset.SuiteMachine, dataset.SuiteHuman, dataset.SuiteRTLLM} {
		for _, p := range dataset.Problems(suite) {
			docs = append(docs, p.RefSource)
		}
	}
	if len(docs) != 314 {
		t.Fatalf("%d reference implementations, want 314", len(docs))
	}
	for _, seed := range []int64{5, 2024} {
		entries, _ := curate.Build(curate.Options{Seed: seed})
		for _, e := range entries {
			docs = append(docs, e.Code)
		}
	}
	return append(docs, "", " \n\t", "a", "a b", "a b c", "a b c d", ";;;;", "assign")
}

// TestSetJaccardMatchesMap: over every pair of corpus documents, the
// interned-set Jaccard and distance equal the map versions bit for bit.
func TestSetJaccardMatchesMap(t *testing.T) {
	docs := corpusDocs(t)
	const k = 4
	sets := cluster.InternShingles(docs, k)
	maps := make([]map[string]struct{}, len(docs))
	for i, d := range docs {
		maps[i] = cluster.Shingles(d, k)
		if len(sets[i]) != len(maps[i]) {
			t.Fatalf("doc %d: %d interned shingles, %d in the map", i, len(sets[i]), len(maps[i]))
		}
		if !slices.IsSorted(sets[i]) || len(slices.Compact(slices.Clone(sets[i]))) != len(sets[i]) {
			t.Fatalf("doc %d: interned set not ascending and duplicate-free: %v", i, sets[i])
		}
	}
	for i := range docs {
		for j := i; j < len(docs); j++ {
			want := cluster.Jaccard(maps[i], maps[j])
			got := cluster.SetJaccard(sets[i], sets[j])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("docs %d,%d: SetJaccard %v, Jaccard %v", i, j, got, want)
			}
			if math.Float64bits(cluster.SetJaccard(sets[j], sets[i])) != math.Float64bits(want) {
				t.Fatalf("docs %d,%d: SetJaccard not symmetric", i, j)
			}
			dw := 1 - want
			if dg := cluster.SetJaccardDistance(sets[i], sets[j]); math.Float64bits(dg) != math.Float64bits(dw) {
				t.Fatalf("docs %d,%d: SetJaccardDistance %v, 1-Jaccard %v", i, j, dg, dw)
			}
		}
	}
}

// checkDBSCAN asserts DBSCAN and its Representatives equal the
// reference's on one input.
func checkDBSCAN(t *testing.T, name string, n int, dist func(i, j int) float64, eps float64, minPts int) {
	t.Helper()
	want := referenceDBSCAN(n, dist, eps, minPts)
	got := cluster.DBSCAN(n, dist, eps, minPts)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: labels\n got %v\nwant %v", name, got, want)
	}
	if g, w := cluster.Representatives(got, dist), cluster.Representatives(want, dist); !slices.Equal(g, w) {
		t.Fatalf("%s: representatives\n got %v\nwant %v", name, g, w)
	}
}

// TestDBSCANMatchesReferenceRandom runs both DBSCANs on random symmetric
// distance matrices (zero diagonal) whose entries are multiples of 0.05,
// so many sit exactly at eps, for n from 0 up.
func TestDBSCANMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		n := trial % 41
		m := make([][]float64, n)
		for i := range m {
			m[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				d := float64(rng.Intn(21)) * 0.05
				m[i][j], m[j][i] = d, d
			}
		}
		dist := func(i, j int) float64 { return m[i][j] }
		eps := float64(rng.Intn(21)) * 0.05
		minPts := 1 + rng.Intn(5)
		checkDBSCAN(t, "random", n, dist, eps, minPts)
	}
}

// TestDBSCANMatchesReferenceOnCurationInput runs both DBSCANs on what
// curation clusters: every filtered sample (a Target above the pool size
// returns the whole pool), at curation's default eps and minPts and a
// few others.
func TestDBSCANMatchesReferenceOnCurationInput(t *testing.T) {
	entries, stats := curate.Build(curate.Options{Seed: 2024, Target: 1 << 20})
	if len(entries) != stats.Filtered {
		t.Fatalf("got %d entries, want the whole filtered pool of %d", len(entries), stats.Filtered)
	}
	codes := make([]string, len(entries))
	for i, e := range entries {
		codes[i] = e.Code
	}
	sets := cluster.InternShingles(codes, 4)
	dist := func(i, j int) float64 { return cluster.SetJaccardDistance(sets[i], sets[j]) }
	for _, c := range []struct {
		eps    float64
		minPts int
	}{{0.35, 2}, {0.2, 3}, {0.5, 2}} {
		checkDBSCAN(t, "curation input", len(codes), dist, c.eps, c.minPts)
	}
}
