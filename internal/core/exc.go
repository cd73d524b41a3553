package core

import "github.com/ccer-go/ccer/internal/graph"

// EXC is Exact Clustering (Algorithm 6 of the paper), inspired by the
// Exact strategy of Similarity Flooding: two entities are matched only if
// they are mutually each other's best match among the edges above the
// threshold. It is the stricter, symmetric version of BMC and a strict
// form of the MinoanER reciprocity filter.
//
// Mutual best match is a symmetric, functional relation, so the output is
// inherently a 1-1 matching. Ties are broken deterministically by the
// adjacency order of the graph (descending weight, then ascending node
// id). Per the paper, EXC trades a little recall for precision relative to
// BMC and is the best effectiveness/efficiency compromise overall.
type EXC struct{}

// Name implements Matcher.
func (EXC) Name() string { return "EXC" }

// Match implements Matcher.
func (EXC) Match(g *graph.Bipartite, t float64) []Pair {
	a1, a2 := g.Adjacency()
	// best2[v] is the best partner of v in V2, or -1.
	var bbuf [512]graph.NodeID
	best2 := scratch(bbuf[:], g.N2())
	for v := range best2 {
		best2[v] = -1
		if k := a2.Off[v]; k < a2.Off[v+1] && a2.W[k] > t {
			best2[v] = a2.Opp[k]
		}
	}
	// One pass over V1 emits the pairs already (U,V)-sorted.
	var pairs []Pair
	for u := int32(0); u < int32(g.N1()); u++ {
		k := a1.Off[u]
		if k == a1.Off[u+1] || !(a1.W[k] > t) {
			continue
		}
		if v := a1.Opp[k]; best2[v] == u { // u's best edge
			pairs = append(pairs, Pair{U: u, V: v, W: a1.W[k]})
		}
	}
	return pairs
}
