// Package cluster implements DBSCAN over Jaccard distance on token
// shingles. The paper's dataset-curation step uses exactly this pairing
// ("clustering using DBSCAN with Jaccard distance, grouping similar
// implementations to select representative examples", §3.4) to pick a
// diverse set of erroneous implementations for VerilogEval-syntax.
package cluster

import (
	"slices"
	"sort"
	"strings"
)

// Noise is the label DBSCAN assigns to points in no cluster.
const Noise = -1

// Shingles tokenizes src and returns the set of k-token shingles. Shingle
// sets are the standard representation for Jaccard similarity over code.
func Shingles(src string, k int) map[string]struct{} {
	out := map[string]struct{}{}
	eachShingle(src, k, func(s string) { out[s] = struct{}{} })
	return out
}

// eachShingle calls fn with every k-token shingle of src, repeats
// included. Input shorter than k tokens is one shingle of all its tokens;
// empty input has none.
func eachShingle(src string, k int, fn func(string)) {
	toks := tokenize(src)
	if k <= 0 {
		k = 1
	}
	if len(toks) < k {
		if len(toks) > 0 {
			fn(strings.Join(toks, " "))
		}
		return
	}
	for i := 0; i+k <= len(toks); i++ {
		fn(strings.Join(toks[i:i+k], " "))
	}
}

// ShingleSet is a document's shingle set as ascending, duplicate-free
// ids. Ids are only comparable between sets interned together.
type ShingleSet []int32

// InternShingles returns the k-token shingle set of every document, with
// each distinct shingle across the corpus mapped to one int32 id. Two
// sets' Jaccard then counts equal ids instead of hashing strings.
func InternShingles(docs []string, k int) []ShingleSet {
	ids := map[string]int32{}
	out := make([]ShingleSet, len(docs))
	for d, src := range docs {
		var set ShingleSet
		eachShingle(src, k, func(s string) {
			id, ok := ids[s]
			if !ok {
				id = int32(len(ids))
				ids[s] = id
			}
			set = append(set, id)
		})
		slices.Sort(set)
		out[d] = slices.Compact(set)
	}
	return out
}

// tokenize is a lightweight code tokenizer: identifiers/numbers clump,
// punctuation splits, whitespace separates.
func tokenize(src string) []string {
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			flush()
		case (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9') || c == '_' || c == '\'':
			cur.WriteByte(c)
		default:
			flush()
			toks = append(toks, string(c))
		}
	}
	flush()
	return toks
}

// Jaccard returns the Jaccard similarity |A∩B| / |A∪B| of two sets.
// Two empty sets are defined as identical (similarity 1). Retrieval ranks
// guidance by it; it is also the reference SetJaccard is tested against.
func Jaccard(a, b map[string]struct{}) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for s := range a {
		if _, ok := b[s]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// SetJaccard is Jaccard over interned sets: it counts the intersection by
// merging the two ascending id lists. The intersection and union are the
// integers Jaccard counts over the same shingles, so the result is
// bit-identical.
func SetJaccard(a, b ShingleSet) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// SetJaccardDistance returns 1 - SetJaccard similarity: DBSCAN's distance
// in curation.
func SetJaccardDistance(a, b ShingleSet) float64 { return 1 - SetJaccard(a, b) }

// DBSCAN clusters n points given a pairwise distance function. eps is the
// neighbourhood radius and minPts the core-point density threshold
// (including the point itself). The result assigns each point a cluster
// id starting at 0, or Noise.
//
// dist must be symmetric: it is called once per unordered pair i<j, and
// never for i == j (a point is always its own neighbour).
func DBSCAN(n int, dist func(i, j int) float64, eps float64, minPts int) []int {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	visited := make([]bool, n)

	// Every point's eps-neighbours, ascending and including itself: by
	// row i, the neighbours below i were appended by earlier rows.
	neighbours := make([][]int, n)
	for i := 0; i < n; i++ {
		neighbours[i] = append(neighbours[i], i)
		for j := i + 1; j < n; j++ {
			if dist(i, j) <= eps {
				neighbours[i] = append(neighbours[i], j)
				neighbours[j] = append(neighbours[j], i)
			}
		}
	}

	cluster := 0
	for p := 0; p < n; p++ {
		if visited[p] {
			continue
		}
		visited[p] = true
		nb := neighbours[p]
		if len(nb) < minPts {
			continue // stays noise unless absorbed later
		}
		labels[p] = cluster
		// Expand cluster via a work queue.
		queue := append([]int(nil), nb...)
		for len(queue) > 0 {
			q := queue[0]
			queue = queue[1:]
			if labels[q] == Noise {
				labels[q] = cluster // border point
			}
			if visited[q] {
				continue
			}
			visited[q] = true
			labels[q] = cluster
			qnb := neighbours[q]
			if len(qnb) >= minPts {
				queue = append(queue, qnb...)
			}
		}
		cluster++
	}
	return labels
}

// Representatives picks one representative index per cluster (the point
// with the smallest summed distance to its cluster peers — a medoid) plus
// every noise point. This matches the paper's goal of "selecting
// representative examples while ensuring a diverse representation".
func Representatives(labels []int, dist func(i, j int) float64) []int {
	byCluster := map[int][]int{}
	for i, l := range labels {
		byCluster[l] = append(byCluster[l], i)
	}
	var out []int
	clusterIDs := make([]int, 0, len(byCluster))
	for id := range byCluster {
		clusterIDs = append(clusterIDs, id)
	}
	sort.Ints(clusterIDs)
	for _, id := range clusterIDs {
		members := byCluster[id]
		if id == Noise {
			out = append(out, members...)
			continue
		}
		best, bestSum := members[0], -1.0
		for _, i := range members {
			sum := 0.0
			for _, j := range members {
				sum += dist(i, j)
			}
			if bestSum < 0 || sum < bestSum {
				best, bestSum = i, sum
			}
		}
		out = append(out, best)
	}
	sort.Ints(out)
	return out
}
