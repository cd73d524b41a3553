package core

import "github.com/ccer-go/ccer/internal/graph"

// CNC is Connected Components clustering (Algorithm 2 of the paper): it
// discards all edges with weight not above the similarity threshold,
// computes the transitive closure of the pruned graph, and keeps only the
// components that contain exactly two entities, one from each collection.
//
// A component of the pruned graph holds exactly two entities iff it is
// one edge (u, v) whose endpoints have no other edge above t. Adjacency
// lists are sorted by descending weight, so that is a test on the first
// two weights of u's list and of v's, and the closure itself is never
// built. One pass over V1 emits the pairs already (U,V)-sorted: a call
// costs O(n1 + n2) over the graph's cached adjacency (graph.Adjacency,
// built once per graph and fetched once per call), whatever the edge
// count, which keeps CNC among the fastest of the eight algorithms, as
// the paper reports.
type CNC struct{}

// Name implements Matcher.
func (CNC) Name() string { return "CNC" }

// Match implements Matcher.
func (CNC) Match(g *graph.Bipartite, t float64) []Pair {
	a1, a2 := g.Adjacency()
	var pairs []Pair
	for u := int32(0); u < int32(g.N1()); u++ {
		lo, hi := a1.Off[u], a1.Off[u+1]
		if !onlyOneAbove(a1.W[lo:hi], t) {
			continue
		}
		if v := a1.Opp[lo]; onlyOneAbove(a2.W[a2.Off[v]:a2.Off[v+1]], t) {
			pairs = append(pairs, Pair{U: u, V: v, W: a1.W[lo]})
		}
	}
	return pairs
}

// onlyOneAbove reports whether exactly one weight of the descending
// list ws is above t.
func onlyOneAbove(ws []float64, t float64) bool {
	return len(ws) > 0 && ws[0] > t && (len(ws) == 1 || !(ws[1] > t))
}
