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
	switch b.Basis {
	case BasisV1:
		return bmcFrom(g, t, true)
	case BasisV2:
		return bmcFrom(g, t, false)
	default:
		p1 := bmcFrom(g, t, true)
		p2 := bmcFrom(g, t, false)
		if TotalWeight(p2) > TotalWeight(p1) {
			return p2
		}
		return p1
	}
}

// bmcFrom runs the scan with V1 as basis when fromV1 is true, otherwise
// with V2 as basis.
func bmcFrom(g *graph.Bipartite, t float64, fromV1 bool) []Pair {
	var pairs []Pair
	var mbuf [512]bool
	if fromV1 {
		matched2 := scratch(mbuf[:], g.N2())
		for u := graph.NodeID(0); int(u) < g.N1(); u++ {
			opp, ws := g.AdjList1(u) // descending weight
			for k, w := range ws {
				if !(w > t) {
					break
				}
				v := opp[k]
				if matched2[v] {
					continue
				}
				matched2[v] = true
				pairs = append(pairs, Pair{U: u, V: v, W: w})
				break
			}
		}
	} else {
		matched1 := scratch(mbuf[:], g.N1())
		for v := graph.NodeID(0); int(v) < g.N2(); v++ {
			opp, ws := g.AdjList2(v)
			for k, w := range ws {
				if !(w > t) {
					break
				}
				u := opp[k]
				if matched1[u] {
					continue
				}
				matched1[u] = true
				pairs = append(pairs, Pair{U: u, V: v, W: w})
				break
			}
		}
	}
	SortPairs(pairs)
	return pairs
}
