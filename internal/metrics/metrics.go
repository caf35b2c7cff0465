// Package metrics implements the paper's two evaluation metrics: the
// compile fix rate (eq. 1) and the unbiased pass@k estimator (eq. 2) from
// Chen et al., as used by VerilogEval.
package metrics

import (
	"fmt"
)

// FixRate is the expectation over problems of c/n, where c of n attempts
// fixed the sample (paper eq. 1). Each element of fixed/total is one
// problem; total[i] must be > 0.
func FixRate(fixed, total []int) (float64, error) {
	if len(fixed) != len(total) {
		return 0, fmt.Errorf("metrics: fixed and total length mismatch (%d vs %d)", len(fixed), len(total))
	}
	if len(fixed) == 0 {
		return 0, fmt.Errorf("metrics: no problems")
	}
	sum := 0.0
	for i := range fixed {
		if total[i] <= 0 {
			return 0, fmt.Errorf("metrics: problem %d has no attempts", i)
		}
		if fixed[i] < 0 || fixed[i] > total[i] {
			return 0, fmt.Errorf("metrics: problem %d has %d fixed of %d", i, fixed[i], total[i])
		}
		sum += float64(fixed[i]) / float64(total[i])
	}
	return sum / float64(len(fixed)), nil
}

// PassAtK is the unbiased estimator 1 - C(n-c, k)/C(n, k) for a single
// problem with n samples of which c passed (paper eq. 2).
func PassAtK(n, c, k int) float64 {
	if k <= 0 || n <= 0 {
		return 0
	}
	if c < 0 {
		c = 0
	}
	if c > n {
		c = n
	}
	if n-c < k {
		return 1
	}
	// Compute 1 - prod_{i=n-c+1..n} (1 - k/i) in a numerically stable way.
	prod := 1.0
	for i := n - c + 1; i <= n; i++ {
		prod *= 1 - float64(k)/float64(i)
	}
	return 1 - prod
}

// MeanPassAtK averages PassAtK over problems; passed[i] of samples[i]
// passed for problem i.
func MeanPassAtK(samples, passed []int, k int) (float64, error) {
	if len(samples) != len(passed) {
		return 0, fmt.Errorf("metrics: samples and passed length mismatch")
	}
	if len(samples) == 0 {
		return 0, fmt.Errorf("metrics: no problems")
	}
	sum := 0.0
	for i := range samples {
		sum += PassAtK(samples[i], passed[i], k)
	}
	return sum / float64(len(samples)), nil
}
