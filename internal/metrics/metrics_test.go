package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestFixRate(t *testing.T) {
	rate, err := FixRate([]int{10, 5, 0}, []int{10, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(rate, 0.5) {
		t.Fatalf("rate = %f, want 0.5", rate)
	}
}

func TestFixRateValidation(t *testing.T) {
	if _, err := FixRate([]int{1}, []int{1, 2}); err == nil {
		t.Error("length mismatch must error")
	}
	if _, err := FixRate(nil, nil); err == nil {
		t.Error("empty input must error")
	}
	if _, err := FixRate([]int{5}, []int{0}); err == nil {
		t.Error("zero attempts must error")
	}
	if _, err := FixRate([]int{11}, []int{10}); err == nil {
		t.Error("fixed > total must error")
	}
}

func TestPassAtKEdgeCases(t *testing.T) {
	if got := PassAtK(20, 0, 1); got != 0 {
		t.Errorf("c=0 should give 0, got %f", got)
	}
	if got := PassAtK(20, 20, 1); !almost(got, 1) {
		t.Errorf("all passing should give 1, got %f", got)
	}
	if got := PassAtK(20, 16, 5); !almost(got, 1) {
		t.Errorf("n-c < k must give 1, got %f", got)
	}
	if got := PassAtK(0, 0, 1); got != 0 {
		t.Errorf("n=0 gives 0, got %f", got)
	}
	if got := PassAtK(10, 12, 1); !almost(got, 1) {
		t.Errorf("c clamped to n, got %f", got)
	}
}

func TestPassAt1IsProportion(t *testing.T) {
	// pass@1 with the unbiased estimator equals c/n exactly.
	for _, c := range []int{0, 1, 7, 13, 20} {
		got := PassAtK(20, c, 1)
		want := float64(c) / 20
		if !almost(got, want) {
			t.Errorf("PassAtK(20,%d,1) = %f, want %f", c, got, want)
		}
	}
}

func TestPassAtKKnownValue(t *testing.T) {
	// n=4, c=2, k=2: 1 - C(2,2)/C(4,2) = 1 - 1/6.
	got := PassAtK(4, 2, 2)
	if !almost(got, 1-1.0/6) {
		t.Fatalf("got %f, want %f", got, 1-1.0/6)
	}
}

// TestPassAtKMonotonicInK: more attempts can only help.
func TestPassAtKMonotonicInK(t *testing.T) {
	f := func(n8, c8, k8 uint8) bool {
		n := int(n8%30) + 2
		c := int(c8) % (n + 1)
		k := int(k8%uint8(n)) + 1
		if k >= n {
			return true
		}
		return PassAtK(n, c, k) <= PassAtK(n, c, k+1)+1e-12
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPassAtKMonotonicInC: more passing samples can only help.
func TestPassAtKMonotonicInC(t *testing.T) {
	f := func(n8, c8, k8 uint8) bool {
		n := int(n8%30) + 2
		c := int(c8) % n
		k := int(k8%uint8(n)) + 1
		return PassAtK(n, c, k) <= PassAtK(n, c+1, k)+1e-12
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPassAtKUnbiased verifies the estimator against a direct Monte-Carlo
// simulation of "draw k samples from n, any of the c passing wins".
func TestPassAtKUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, c, k := 20, 7, 5
	est := PassAtK(n, c, k)
	hits := 0
	trials := 200000
	for i := 0; i < trials; i++ {
		perm := rng.Perm(n)
		win := false
		for _, idx := range perm[:k] {
			if idx < c {
				win = true
				break
			}
		}
		if win {
			hits++
		}
	}
	mc := float64(hits) / float64(trials)
	if math.Abs(mc-est) > 0.01 {
		t.Fatalf("estimator %f vs monte-carlo %f", est, mc)
	}
}

func TestMeanPassAtK(t *testing.T) {
	got, err := MeanPassAtK([]int{10, 10}, []int{10, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got, 0.5) {
		t.Fatalf("got %f, want 0.5", got)
	}
	if _, err := MeanPassAtK([]int{1}, []int{1, 2}, 1); err == nil {
		t.Error("length mismatch must error")
	}
}
