package pipeline

import (
	"math"
	"time"

	"repro/internal/agent"
	"repro/internal/metrics"
)

// Summary aggregates a batch's results into the quantities the paper's
// evaluation needs: the fix rate (eq. 1) over job groups, the per-group
// success counts that feed the pass@k estimator (eq. 2), and the
// iteration histogram behind Figure 7. Because it is computed from the
// index-ordered result slice, a Summary is identical for any worker
// count.
type Summary struct {
	// Jobs is the batch size; Completed excludes canceled/timed-out jobs.
	Jobs      int
	Completed int
	// Succeeded counts transcripts with Success == true; Failed counts
	// completed-but-unfixed jobs; Errored counts canceled/timed-out ones.
	Succeeded int
	Failed    int
	Errored   int
	// FixRate is metrics.FixRate over groups (NaN when no group has a
	// completed job).
	FixRate float64
	// GroupTotal/GroupFixed are the pass@k estimator inputs, indexed by
	// Job.Group (dense 0..maxGroup).
	GroupTotal []int
	GroupFixed []int
	// IterationHist[i] counts successful fixes that needed i revisions
	// (index 0 unused; 1..agent.DefaultMaxIterations), Figure 7's data.
	IterationHist [agent.DefaultMaxIterations + 1]int
	// LintFindings sums the analyzer findings surfaced to the model
	// across all completed transcripts (0 with the analyzer off).
	LintFindings int
	// TotalWork sums per-job elapsed time: the serial cost the pool
	// amortized.
	TotalWork time.Duration
}

// Summarize folds an index-ordered result slice into a Summary.
func Summarize(results []Result) *Summary {
	s := &Summary{Jobs: len(results), FixRate: math.NaN()}
	maxGroup := -1
	for _, r := range results {
		if r.Job.Group > maxGroup {
			maxGroup = r.Job.Group
		}
	}
	s.GroupTotal = make([]int, maxGroup+1)
	s.GroupFixed = make([]int, maxGroup+1)

	for _, r := range results {
		s.TotalWork += r.Elapsed
		if r.Err != nil || r.Transcript == nil {
			s.Errored++
			continue
		}
		s.Completed++
		s.LintFindings += r.Transcript.LintFindings
		s.GroupTotal[r.Job.Group]++
		if r.Transcript.Success {
			s.Succeeded++
			s.GroupFixed[r.Job.Group]++
			if it := r.Transcript.Iterations; it >= 0 && it < len(s.IterationHist) {
				s.IterationHist[it]++
			}
		} else {
			s.Failed++
		}
	}

	// Groups with no completed job (all canceled) cannot contribute to
	// the fix rate; compact them away for the estimator.
	var fixed, total []int
	for g := range s.GroupTotal {
		if s.GroupTotal[g] > 0 {
			fixed = append(fixed, s.GroupFixed[g])
			total = append(total, s.GroupTotal[g])
		}
	}
	if rate, err := metrics.FixRate(fixed, total); err == nil {
		s.FixRate = rate
	}
	return s
}
