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
	// best2[v] is the best partner of v in V2, or -1.
	var bbuf [512]graph.NodeID
	best2 := scratch(bbuf[:], g.N2())
	for v := range best2 {
		best2[v] = -1
		opp, ws := g.AdjList2(graph.NodeID(v))
		if len(ws) > 0 && ws[0] > t {
			best2[v] = opp[0]
		}
	}
	var pairs []Pair
	for u := graph.NodeID(0); int(u) < g.N1(); u++ {
		opp, ws := g.AdjList1(u)
		if len(ws) == 0 || !(ws[0] > t) {
			continue
		}
		if v := opp[0]; best2[v] == u { // u's best edge
			pairs = append(pairs, Pair{U: u, V: v, W: ws[0]})
		}
	}
	SortPairs(pairs)
	return pairs
}
