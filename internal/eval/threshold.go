package eval

import (
	"slices"
	"sort"

	"github.com/ccer-go/ccer/internal/graph"
)

// EstimateThreshold suggests a similarity threshold for a normalized
// graph without using any ground truth, operationalizing the paper's
// threshold analysis (Table 8): the optimal threshold depends more on
// the input — its weight distribution and normalized size — than on the
// matching algorithm.
//
// The estimator exploits the Clean-Clean structure: a 1-1 matching keeps
// at most k = min(|V1|, |V2|) edges, so the boundary between matching
// and non-matching weights must sit near rank k of the descending weight
// order. It searches the ranks around k for the widest weight gap (the
// "valley" between the match and non-match modes) and cuts there,
// falling back to the weight at rank k when no clear valley exists. The
// returned value is snapped to the paper's 0.05 grid and clamped to
// [0.05, 0.95].
func EstimateThreshold(g *graph.Bipartite) float64 {
	m := g.NumEdges()
	if m == 0 {
		return 0.5
	}
	ws := slices.Clone(g.Rows().W)
	sort.Sort(sort.Reverse(sort.Float64Slice(ws)))

	k := g.N1()
	if g.N2() < k {
		k = g.N2()
	}
	if k >= m {
		// Fewer edges than the matching capacity: keep almost
		// everything.
		return snapToGrid(ws[m-1])
	}

	// Search ranks [k/2, 3k] for the widest gap between consecutive
	// weights; cutting there separates the high-similarity cluster that
	// can plausibly be the matching from the bulk below it.
	lo := k / 2
	if lo < 1 {
		lo = 1
	}
	hi := 3 * k
	if hi > m-1 {
		hi = m - 1
	}
	bestGap, bestCut := 0.0, -1.0
	for i := lo; i < hi; i++ {
		if gap := ws[i-1] - ws[i]; gap > bestGap {
			bestGap = gap
			bestCut = (ws[i-1] + ws[i]) / 2
		}
	}
	if bestCut >= 0 && bestGap > 0.01 {
		return snapToGrid(bestCut)
	}
	// No usable valley (near-uniform weights, as semantic similarities
	// often produce): cut at the matching-capacity rank itself.
	return snapToGrid(ws[k-1])
}

// snapToGrid rounds to the paper's 0.05 threshold grid within
// [0.05, 0.95].
func snapToGrid(t float64) float64 {
	snapped := float64(int(t/0.05+0.5)) * 0.05
	if snapped < 0.05 {
		snapped = 0.05
	}
	if snapped > 0.95 {
		snapped = 0.95
	}
	return snapped
}
