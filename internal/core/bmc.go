package core

import "github.com/ccer-go/ccer/internal/graph"

// Basis selects which entity collection BMC uses as the basis for creating
// partitions (Table 1: "node partition used as basis").
type Basis int

const (
	// BasisAuto runs BMC from both sides and keeps the matching with the
	// larger total weight, mirroring the paper's tuning procedure
	// ("we examine both options and retain the best one").
	BasisAuto Basis = iota
	// BasisV1 iterates over the first collection.
	BasisV1
	// BasisV2 iterates over the second collection.
	BasisV2
)

// BMC is Best Match Clustering (Algorithm 5 of the paper), inspired by the
// Best Match strategy of Similarity Flooding as simplified in BigMat. For
// every entity of the basis collection it claims the most similar
// not-yet-clustered entity of the other collection, provided the edge
// weight exceeds the threshold.
//
// Per the paper it is the second-fastest algorithm and works best when the
// smaller collection is the basis. Time complexity O(m).
type BMC struct {
	Basis Basis
}

// Name implements Matcher.
func (BMC) Name() string { return "BMC" }

// Match implements Matcher.
func (b BMC) Match(g *graph.Bipartite, t float64) []Pair {
	a1, a2 := g.Adjacency()
	switch b.Basis {
	case BasisV1:
		return bmcFrom(a1, g.N2(), t, false)
	case BasisV2:
		return bmcFrom(a2, g.N1(), t, true)
	default:
		p1 := bmcFrom(a1, g.N2(), t, false)
		p2 := bmcFrom(a2, g.N1(), t, true)
		if TotalWeight(p2) > TotalWeight(p1) {
			return p2
		}
		return p1
	}
}

// bmcFrom runs the scan over the basis side's adjacency a, claiming
// nodes of the other side, which has nOther of them. fromV2 reports that
// the basis is V2, so each pair's ends swap back into (V1, V2) order.
func bmcFrom(a graph.Adjacency, nOther int, t float64, fromV2 bool) []Pair {
	var pairs []Pair
	var mbuf [512]bool
	matched := scratch(mbuf[:], nOther)
	for x := int32(0); x < int32(len(a.Off)-1); x++ {
		lo, hi := a.Off[x], a.Off[x+1]
		opp := a.Opp[lo:hi]
		for k, w := range a.W[lo:hi] { // descending weight
			if !(w > t) {
				break
			}
			y := opp[k]
			if matched[y] {
				continue
			}
			matched[y] = true
			pairs = append(pairs, orient(x, y, w, fromV2))
			break
		}
	}
	SortPairs(pairs)
	return pairs
}

// orient returns the pair of basis node x and other-side node y with
// weight w, its ends swapped when the basis is V2.
func orient(x, y int32, w float64, fromV2 bool) Pair {
	if fromV2 {
		return Pair{U: y, V: x, W: w}
	}
	return Pair{U: x, V: y, W: w}
}
