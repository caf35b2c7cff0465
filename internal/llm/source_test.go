package llm

import (
	"math"
	"math/rand"
	"testing"
)

// drawMix draws n values from r, cycling through every rand.Rand method
// internal/llm and core call, and appends their bits to out (each
// element of a Perm separately).
func drawMix(r *rand.Rand, n int, out []uint64) []uint64 {
	for i := range n {
		switch i % 6 {
		case 0:
			out = append(out, math.Float64bits(r.Float64()))
		case 1:
			out = append(out, math.Float64bits(r.NormFloat64()))
		case 2:
			out = append(out, uint64(r.Intn(1+i%97)))
		case 3:
			out = append(out, uint64(r.Int63()))
		case 4:
			out = append(out, r.Uint64())
		case 5:
			for _, v := range r.Perm(1 + i%7) {
				out = append(out, uint64(v))
			}
		}
	}
	return out
}

// sourceTestSeeds are the seeds of TestSourceMatchesMathRand: the
// normalization's edges (0, ±1, ±(2^31−1), 2·(2^31−1), the int64
// extremes) and 2000 random ones.
func sourceTestSeeds() []int64 {
	seeds := []int64{0, 1, -1, lehmerP, -lehmerP, 2 * lehmerP, math.MaxInt64, math.MinInt64}
	r := rand.New(rand.NewSource(26))
	for range 2000 {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// TestSourceMatchesMathRand: for every seed, a fresh NewSource and one
// pooled source reseeded through rand.Rand.Seed give the stream of
// rand.NewSource(seed). The pooled source has drawn 3000 values of the
// previous seed before each reseed, so its feed and tap have wrapped
// around the state more than twice (1214 draws), as a generator reused
// across fixes has.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 3000
	pooled := rand.New(NewSource(0))
	var want, fresh, reused []uint64
	for _, seed := range sourceTestSeeds() {
		want = drawMix(rand.New(rand.NewSource(seed)), draws, want[:0])
		fresh = drawMix(rand.New(NewSource(seed)), draws, fresh[:0])
		pooled.Seed(seed)
		reused = drawMix(pooled, draws, reused[:0])
		if i := firstDiff(fresh, want); i >= 0 {
			t.Fatalf("seed %d: NewSource differs from rand.NewSource at value %d", seed, i)
		}
		if i := firstDiff(reused, want); i >= 0 {
			t.Fatalf("seed %d: reseeded source differs from rand.NewSource at value %d", seed, i)
		}
	}
	// A reseed after any number of draws, around each wrap of feed and
	// tap, starts the new seed's stream.
	for _, before := range []int{0, 1, 20, 333, 334, 335, 607, 608, 941, 1214, 1215, 5000} {
		want = drawMix(rand.New(rand.NewSource(7)), draws, want[:0])
		s := NewSource(8)
		for range before {
			s.Uint64()
		}
		s.Seed(7)
		if i := firstDiff(drawMix(rand.New(s), draws, nil), want); i >= 0 {
			t.Fatalf("reseeded after %d draws: differs from rand.NewSource at value %d", before, i)
		}
	}
}

// firstDiff returns the first index where a and b differ, -1 if equal.
func firstDiff(a, b []uint64) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestSourceReseedAllocs pins a pooled generator's reseed plus a run's
// worth of draws at zero allocations.
func TestSourceReseedAllocs(t *testing.T) {
	r := rand.New(NewSource(0))
	seed := int64(0)
	allocs := testing.AllocsPerRun(200, func() {
		seed++
		r.Seed(seed)
		for range 20 {
			r.Float64()
		}
	})
	if allocs != 0 {
		t.Fatalf("Seed plus 20 draws: %v allocs, want 0", allocs)
	}
}

// FuzzSourceMatchesMathRand: a source reseeded to seed after draws
// values of another seed continues exactly as rand.NewSource(seed).
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(0))
	f.Add(int64(-1), uint16(1215))
	f.Add(int64(lehmerP), uint16(607))
	f.Add(int64(math.MinInt64), uint16(2000))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		const n = 700
		want := drawMix(rand.New(rand.NewSource(seed)), n, nil)
		if i := firstDiff(drawMix(rand.New(NewSource(seed)), n, nil), want); i >= 0 {
			t.Fatalf("seed %d: NewSource differs at value %d", seed, i)
		}
		r := rand.New(NewSource(^seed))
		drawMix(r, int(draws), nil)
		r.Seed(seed)
		if i := firstDiff(drawMix(r, n, nil), want); i >= 0 {
			t.Fatalf("seed %d reseeded after %d draws: differs at value %d", seed, draws, i)
		}
	})
}

// BenchmarkSourceSeed: reseeding a pooled generator plus 20 draws, about
// one simulated-model run, on this source and on math/rand's.
func BenchmarkSourceSeed(b *testing.B) {
	for _, c := range []struct {
		name string
		src  rand.Source
	}{{"llm", NewSource(0)}, {"math-rand", rand.NewSource(0)}} {
		b.Run(c.name, func(b *testing.B) {
			r := rand.New(c.src)
			b.ReportAllocs()
			for i := range b.N {
				r.Seed(int64(i))
				for range 20 {
					r.Float64()
				}
			}
		})
	}
}
