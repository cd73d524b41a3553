package core

import "github.com/ccer-go/ccer/internal/graph"

// RCA is Row Column Assignment clustering (Algorithm 3 of the paper),
// based on Kurtzberg's row-column scan approximation to the assignment
// problem. It makes two greedy passes over the graph — one assigning each
// V1 entity its most similar unassigned V2 entity, one the other way
// around — keeps the pass with the larger total assigned weight, and
// finally discards the pairs whose similarity does not exceed the
// threshold.
//
// Following the sparse-graph implementations the paper benchmarks, only
// existing edges (similarity > 0) are candidates; in the dense assignment
// formulation the remaining pairs have zero weight and would be discarded
// by the threshold anyway. Time complexity O(|V1||V2|) in the dense
// worst case, O(m) on sparse graphs.
type RCA struct{}

// Name implements Matcher.
func (RCA) Name() string { return "RCA" }

// Match implements Matcher.
func (RCA) Match(g *graph.Bipartite, t float64) []Pair {
	a1, a2 := g.Adjacency()
	p1, d1 := rcaPass(a1, g.N2(), false)
	p2, d2 := rcaPass(a2, g.N1(), true)
	best := p1
	if d2 > d1 {
		best = p2
	}
	pairs := best[:0:0]
	for _, p := range best {
		if p.W > t {
			pairs = append(pairs, p)
		}
	}
	SortPairs(pairs)
	return pairs
}

// rcaPass performs one greedy scan over the basis side's adjacency a:
// every basis node claims its most similar unmatched node of the other
// side, which has nOther of them. fromV2 reports that the basis is V2.
// It returns the assignment and its total weight.
func rcaPass(a graph.Adjacency, nOther int, fromV2 bool) ([]Pair, float64) {
	var pairs []Pair
	total := 0.0
	var mbuf [512]bool
	matched := scratch(mbuf[:], nOther)
	for x := int32(0); x < int32(len(a.Off)-1); x++ {
		lo, hi := a.Off[x], a.Off[x+1]
		opp := a.Opp[lo:hi]
		for k, w := range a.W[lo:hi] {
			y := opp[k]
			if matched[y] {
				continue
			}
			matched[y] = true
			pairs = append(pairs, orient(x, y, w, fromV2))
			total += w
			break
		}
	}
	return pairs, total
}
