package core

import (
	"slices"

	"github.com/ccer-go/ccer/internal/graph"
)

// HopcroftKarp computes a maximum cardinality matching of the edges above
// the threshold in O(m√n), ignoring weights. It is not one of the paper's
// algorithms — CCER optimizes weighted quality, not size — but it bounds
// how many pairs any 1-1 matcher can possibly emit, which the tests use
// to check the maximality guarantees of UMC and KRC (every maximal
// matching has at least half the maximum cardinality). It is a test
// oracle, so it lives in the tests.
type HopcroftKarp struct{}

// Name implements Matcher.
func (HopcroftKarp) Name() string { return "HK" }

// Match implements Matcher.
func (HopcroftKarp) Match(g *graph.Bipartite, t float64) []Pair {
	n1, n2 := g.N1(), g.N2()
	if n1 == 0 || n2 == 0 {
		return nil
	}

	// Filtered adjacency: above-threshold neighbors per V1 node, the
	// weight-sorted prefix of each V1 list.
	a1, _ := g.Adjacency()
	adj := make([][]int32, n1)
	for u := range adj {
		lo, hi := a1.Off[u], a1.Off[u+1]
		k := lo
		for k < hi && a1.W[k] > t {
			k++
		}
		adj[u] = a1.Opp[lo:k]
	}

	const inf = int32(1) << 30
	matchU := make([]int32, n1) // partner of u in V2, or -1
	matchV := make([]int32, n2) // partner of v in V1, or -1
	for i := range matchU {
		matchU[i] = -1
	}
	for i := range matchV {
		matchV[i] = -1
	}
	dist := make([]int32, n1)
	queue := make([]int32, 0, n1)

	bfs := func() bool {
		queue = queue[:0]
		for u := int32(0); int(u) < n1; u++ {
			if matchU[u] < 0 {
				dist[u] = 0
				queue = append(queue, u)
			} else {
				dist[u] = inf
			}
		}
		found := false
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range adj[u] {
				w := matchV[v]
				if w < 0 {
					found = true
				} else if dist[w] == inf {
					dist[w] = dist[u] + 1
					queue = append(queue, w)
				}
			}
		}
		return found
	}

	var dfs func(u int32) bool
	dfs = func(u int32) bool {
		for _, v := range adj[u] {
			w := matchV[v]
			if w < 0 || (dist[w] == dist[u]+1 && dfs(w)) {
				matchU[u] = v
				matchV[v] = u
				return true
			}
		}
		dist[u] = inf
		return false
	}

	for bfs() {
		for u := int32(0); int(u) < n1; u++ {
			if matchU[u] < 0 {
				dfs(u)
			}
		}
	}

	var pairs []Pair
	for u := int32(0); int(u) < n1; u++ {
		if v := matchU[u]; v >= 0 {
			k := a1.Off[u] + int32(slices.Index(adj[u], v))
			pairs = append(pairs, Pair{U: u, V: v, W: a1.W[k]})
		}
	}
	return pairs
}
