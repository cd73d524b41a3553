package core

import "github.com/ccer-go/ccer/internal/graph"

// UMC is Unique Mapping Clustering (Algorithm 8 of the paper): it sorts
// the edges with weight above the threshold in decreasing order and
// greedily matches the top-weighted pair whose entities are both still
// unmatched. This enforces the unique mapping constraint of Clean-Clean ER
// directly and equals FAMER's CLIP clustering in the two-source case.
//
// UMC is the classic 1/2-approximation to maximum weight bipartite
// matching. Per the paper it offers the best precision-recall balance and
// is the best choice for balanced entity collections.
//
// The greedy is computed by deferred acceptance. V1 nodes propose down
// their cached adjacency lists (descending weight, ties by node id),
// and a V2 node keeps the proposal that comes first in the by-weight
// order: weight descending, then node id. Both sides then rank edges by
// one strict order, the greedy's own, and under such preferences the
// stable matching is unique: the first edge of the order is in every
// stable matching, since both its endpoints prefer it to any other
// edge, and removing its endpoints repeats the argument. The greedy
// matching is stable, since an edge it skips has an endpoint already
// matched through an earlier edge, so the two are equal. A node
// proposes at most once along each of its edges above t, so a call
// costs O(n + m_t) sequential reads for the m_t edges above t, with no
// sort and no pass over a by-weight edge list.
type UMC struct{}

// Name implements Matcher.
func (UMC) Name() string { return "UMC" }

// Match implements Matcher.
func (UMC) Match(g *graph.Bipartite, t float64) []Pair {
	n1, n2 := g.N1(), g.N2()
	a1 := g.Rows()

	var (
		nxBuf [512]int32
		mtBuf [512]int32
		hdBuf [512]int32
		hwBuf [512]float64
	)
	next := scratch(nxBuf[:], n1)  // where a held node resumes if displaced
	mate := scratch(mtBuf[:], n1)  // V2 node holding each V1 node, or -1
	held := scratch(hdBuf[:], n2)  // V1 node each V2 node holds, or -1
	heldW := scratch(hwBuf[:], n2) // weight of the held proposal
	for u := range mate {
		mate[u] = -1
	}
	for v := range held {
		held[v] = -1
	}

	for s := int32(0); s < int32(n1); s++ {
		// u proposes from a1 index k on; a node it displaces takes over.
		u, k := s, a1.Off[s]
		for k < a1.Off[u+1] {
			w := a1.W[k]
			if !(w > t) {
				break // descending order: the rest is pruned too
			}
			v := a1.Opp[k]
			k++
			h := held[v]
			if h >= 0 && (w < heldW[v] || (w == heldW[v] && h < u)) {
				continue // v holds an earlier edge of the order
			}
			held[v], heldW[v], mate[u], next[u] = u, w, v, k
			if h < 0 {
				break
			}
			mate[h] = -1
			u, k = h, next[h]
		}
	}

	var pairs []Pair
	for u, v := range mate {
		if v >= 0 {
			pairs = append(pairs, Pair{U: graph.NodeID(u), V: v, W: heldW[v]})
		}
	}
	return pairs
}
