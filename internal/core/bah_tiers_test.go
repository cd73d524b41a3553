package core

import (
	"math/rand"
	"testing"
	"time"

	"github.com/ccer-go/ccer/internal/graph"
)

// seedBAH is the seed implementation of Algorithm 4, kept verbatim as a
// reference: live math/rand draws, map-backed weight lookup, branchy
// delta. Every fast-path tier of BAH.Match must reproduce it exactly.
func seedBAH(g *graph.Bipartite, t float64, seed int64, maxSteps int) []Pair {
	swapped := g.N1() < g.N2()
	nLarge, nSmall := g.N1(), g.N2()
	if swapped {
		nLarge, nSmall = nSmall, nLarge
	}
	if nLarge == 0 || nSmall == 0 {
		return nil
	}
	lookup := g.Weight
	d := func(large, small graph.NodeID) float64 {
		var w float64
		var ok bool
		if swapped {
			w, ok = lookup(small, large)
		} else {
			w, ok = lookup(large, small)
		}
		if ok && w > t {
			return w
		}
		return 0
	}
	p := make([]graph.NodeID, nLarge)
	for i := range p {
		if i < nSmall {
			p[i] = graph.NodeID(i)
		} else {
			p[i] = -1
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for step := 0; step < maxSteps; step++ {
		i := graph.NodeID(rng.Intn(nLarge))
		j := graph.NodeID(rng.Intn(nLarge))
		if i == j {
			continue
		}
		delta := 0.0
		if p[i] >= 0 {
			delta += d(j, p[i]) - d(i, p[i])
		}
		if p[j] >= 0 {
			delta += d(i, p[j]) - d(j, p[j])
		}
		if delta >= 0 {
			p[i], p[j] = p[j], p[i]
		}
	}
	var pairs []Pair
	for i := range p {
		if p[i] < 0 {
			continue
		}
		if w := d(graph.NodeID(i), p[i]); w > 0 {
			if swapped {
				pairs = append(pairs, Pair{U: p[i], V: graph.NodeID(i), W: w})
			} else {
				pairs = append(pairs, Pair{U: graph.NodeID(i), V: p[i], W: w})
			}
		}
	}
	SortPairs(pairs)
	return pairs
}

func tierGraph(seed int64, n1, n2, edges int) *graph.Bipartite {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n1, n2)
	for k := 0; k < edges; k++ {
		b.Add(int32(rng.Intn(n1)), int32(rng.Intn(n2)), rng.Float64())
	}
	return b.MustBuild()
}

// BAH has three walk tiers (thresholded matrix / cached dense probe /
// map probe) selected by graph size vs step budget; all must be
// draw-for-draw identical to the seed implementation.
func TestBAHTiersMatchSeedImplementation(t *testing.T) {
	const steps = 400
	cases := []struct {
		name string
		g    *graph.Bipartite
	}{
		// cells <= 2*steps: thresholded-matrix tier.
		{"wt-matrix", tierGraph(1, 20, 30, 120)},
		// cells > 2*steps but within the dense lookup cap: dense probe.
		{"dense-probe", tierGraph(2, 60, 40, 300)},
		// cells beyond the dense lookup cap: map probe.
		{"map-probe", tierGraph(3, 1<<11, 1<<10, 800)},
		// Swapped orientation (|V1| < |V2|) through the matrix tier.
		{"swapped", tierGraph(4, 12, 25, 90)},
	}
	for _, tc := range cases {
		for _, thr := range []float64{0.1, 0.5, 0.9} {
			m := BAH{Seed: 77, MaxSteps: steps, MaxDuration: time.Minute}
			got := m.Match(tc.g, thr)
			want := seedBAH(tc.g, thr, 77, steps)
			if len(got) != len(want) {
				t.Fatalf("%s t=%v: %d pairs, seed %d", tc.name, thr, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("%s t=%v pair %d: %+v, seed %+v", tc.name, thr, k, got[k], want[k])
				}
			}
		}
	}
}
