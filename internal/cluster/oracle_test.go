package cluster_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/curate"
	"repro/internal/dataset"
)

// referenceDBSCAN is the per-point DBSCAN the neighbour-row version replaced:
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

// checkDBSCAN asserts DBSCAN over the given neighbour rows, and its
// Representatives, equal the reference's on one input.
func checkDBSCAN(t *testing.T, name string, rows [][]int, dist func(i, j int) float64, eps float64, minPts int) {
	t.Helper()
	want := referenceDBSCAN(len(rows), dist, eps, minPts)
	got := cluster.DBSCAN(rows, minPts)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: labels\n got %v\nwant %v", name, got, want)
	}
	if g, w := cluster.Representatives(got, dist), cluster.Representatives(want, dist); !slices.Equal(g, w) {
		t.Fatalf("%s: representatives\n got %v\nwant %v", name, g, w)
	}
}

// TestDBSCANMatchesReferenceRandom runs DBSCAN over all-pairs neighbour
// rows and the reference on random symmetric distance matrices (zero
// diagonal) whose entries are multiples of 0.05, so many sit exactly at
// eps, for n from 0 up.
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
		checkDBSCAN(t, "random", cluster.AllPairs(n, dist, eps), dist, eps, minPts)
	}
}

// curationSets is what curation clusters: the shingle sets of every
// filtered sample (a Target above the pool size returns the whole pool).
func curationSets(t testing.TB) []cluster.ShingleSet {
	t.Helper()
	entries, stats := curate.Build(curate.Options{Seed: 2024, Target: 1 << 20})
	if len(entries) != stats.Filtered {
		t.Fatalf("got %d entries, want the whole filtered pool of %d", len(entries), stats.Filtered)
	}
	codes := make([]string, len(entries))
	for i, e := range entries {
		codes[i] = e.Code
	}
	return cluster.InternShingles(codes, 4)
}

// TestDBSCANMatchesReferenceOnCurationInput runs DBSCAN over Neighbours
// rows and the reference on curation's input, at curation's default eps
// and minPts and a few others.
func TestDBSCANMatchesReferenceOnCurationInput(t *testing.T) {
	sets := curationSets(t)
	dist := func(i, j int) float64 { return cluster.SetJaccardDistance(sets[i], sets[j]) }
	for _, c := range []struct {
		eps    float64
		minPts int
	}{{0.35, 2}, {0.2, 3}, {0.5, 2}} {
		checkDBSCAN(t, "curation input", cluster.Neighbours(sets, c.eps), dist, c.eps, c.minPts)
	}
}

// TestNeighboursMatchesAllPairs: the prefix-filtered join's rows equal
// the all-pairs rows over the corpus documents (empty and
// shorter-than-a-shingle inputs included) and over curation's input, at
// eps from 0 to 1, and on random small sets where many distances sit
// exactly at eps.
func TestNeighboursMatchesAllPairs(t *testing.T) {
	inputs := map[string][]cluster.ShingleSet{
		"corpus":   cluster.InternShingles(corpusDocs(t), 4),
		"curation": curationSets(t),
	}
	for name, sets := range inputs {
		dist := func(i, j int) float64 { return cluster.SetJaccardDistance(sets[i], sets[j]) }
		for _, eps := range []float64{0, 0.2, 0.35, 0.5, 1} {
			checkNeighbours(t, fmt.Sprintf("%s eps %v", name, eps), sets, dist, eps)
		}
	}
	// 1-3/10 rounds to 0.7 exactly, while (1-0.7)*10 rounds above 3: a
	// prefix sized from 1-eps itself would hold only x's seven ids that
	// y lacks, and lose the pair.
	x := cluster.ShingleSet{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	y := cluster.ShingleSet{0, 1, 2}
	rounding := []cluster.ShingleSet{x, y}
	checkNeighbours(t, "rounding", rounding, func(i, j int) float64 {
		return cluster.SetJaccardDistance(rounding[i], rounding[j])
	}, 0.7)
	if rows := cluster.Neighbours(rounding, 0.7); len(rows[0]) != 2 {
		t.Fatalf("rounding: rows %v, want the pair", rows)
	}

	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		sets := make([]cluster.ShingleSet, trial%30)
		for i := range sets {
			var s cluster.ShingleSet
			for id := int32(0); id < 10; id++ {
				if rng.Intn(3) == 0 {
					s = append(s, id)
				}
			}
			sets[i] = s
		}
		dist := func(i, j int) float64 { return cluster.SetJaccardDistance(sets[i], sets[j]) }
		eps := []float64{-0.1, 0, 0.1, 0.2, 0.25, 1.0 / 3, 0.5, 2.0 / 3, 0.75, 0.9, 1, 1.5}[trial%12]
		checkNeighbours(t, fmt.Sprintf("random trial %d eps %v", trial, eps), sets, dist, eps)
	}
}

func checkNeighbours(t *testing.T, name string, sets []cluster.ShingleSet, dist func(i, j int) float64, eps float64) {
	t.Helper()
	want := cluster.AllPairs(len(sets), dist, eps)
	got := cluster.Neighbours(sets, eps)
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s: row %d\n got %v\nwant %v", name, i, got[i], want[i])
		}
	}
}

// BenchmarkNeighbours times curation's neighbour pass over its whole
// filtered pool at the default eps: the prefix-filtered join against the
// all-pairs loop it replaced.
func BenchmarkNeighbours(b *testing.B) {
	sets := curationSets(b)
	dist := func(i, j int) float64 { return cluster.SetJaccardDistance(sets[i], sets[j]) }
	b.Run("prefix", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cluster.Neighbours(sets, 0.35)
		}
	})
	b.Run("all-pairs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cluster.AllPairs(len(sets), dist, 0.35)
		}
	})
}
