package core

import (
	"time"

	"github.com/ccer-go/ccer/internal/graph"
)

// Default BAH configuration used throughout the paper's experiments
// (Table 1): 10,000 search steps capped at 2 minutes of run-time.
const (
	DefaultBAHSteps    = 10000
	DefaultBAHDuration = 2 * time.Minute
)

// BAH is the Best Assignment Heuristic (Algorithm 4 of the paper): a
// swap-based random search that heuristically solves maximum weight
// bipartite matching. Every entity of the smaller collection starts
// connected to an entity of the larger one; each step picks two random
// entities of the larger collection and swaps their partners if the sum of
// the new pair weights is at least the old sum. Only pairs whose edge
// weight exceeds the threshold are emitted.
//
// BAH is stochastic: the paper finds it the least robust algorithm and by
// far the slowest under the default caps, while occasionally achieving the
// best F-measure on balanced collections.
//
// A step costs two random loads into the graph: Match keeps each
// large-side node's current pair weight in a per-call array, so it
// probes only the two pairs a swap would make. Small graphs instead
// build a per-call thresholded matrix, whose four loads a step are
// cheaper than the threshold tests of the graph's cached matrix at
// corpus size. Draws replay a cached stream of the seed's sequence
// (randstream.go).
type BAH struct {
	// Seed seeds the random number generator, making a run reproducible.
	Seed int64
	// MaxSteps caps the number of search steps; if zero,
	// DefaultBAHSteps is used.
	MaxSteps int
	// MaxDuration caps the wall-clock run-time; if zero,
	// DefaultBAHDuration is used.
	MaxDuration time.Duration
}

// NewBAH returns a BAH matcher with the paper's default step and time caps.
func NewBAH(seed int64) BAH {
	return BAH{Seed: seed, MaxSteps: DefaultBAHSteps, MaxDuration: DefaultBAHDuration}
}

// Name implements Matcher.
func (BAH) Name() string { return "BAH" }

// CloneMatcher implements Cloner. BAH's random state lives inside Match
// (a fresh rand.Rand per call), so the value copy is a fully independent
// matcher that reproduces the original's output for the same seed.
func (b BAH) CloneMatcher() Matcher { return b }

// Match implements Matcher.
func (b BAH) Match(g *graph.Bipartite, t float64) []Pair {
	maxSteps := b.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultBAHSteps
	}
	maxDur := b.MaxDuration
	if maxDur <= 0 {
		maxDur = DefaultBAHDuration
	}

	// Orient so that "large" is the side the random search permutes
	// (the paper's V1 with |V1| > |V2|).
	swapped := g.N1() < g.N2()
	nLarge, nSmall := g.N1(), g.N2()
	if swapped {
		nLarge, nSmall = nSmall, nLarge
	}
	if nLarge == 0 || nSmall == 0 {
		return nil
	}
	// No edge exceeds the threshold: every pair contribution is 0, so
	// the random walk cannot change the (empty) output — skip it.
	if !(g.MaxWeight() > t) {
		return nil
	}

	// p[i] is the small-side partner of large-side node i, or -1. Small
	// graphs keep it on the stack.
	var pbuf [512]graph.NodeID
	p := scratch(pbuf[:], nLarge)
	for i := range p {
		if i < nSmall {
			p[i] = graph.NodeID(i)
		} else {
			p[i] = -1
		}
	}

	// The seeded draw sequence is cached and replayed (see
	// randstream.go): values match rand.New(rand.NewSource(b.Seed)) and
	// Intn(nLarge) exactly, so results are unchanged. The walk consumes
	// precisely two draws per step, acquired in deadline-check-sized
	// chunks so a binding time cap stops the stream growth too.
	src := newDrawSource(b.Seed, nLarge, 2*maxSteps)
	deadline := time.Now().Add(maxDur)
	const chunk = 256 // steps between deadline checks, as in the classic loop

	// cur[i] is large node i's pair contribution: the weight of its edge
	// to p[i] if that edge exists and exceeds t, else 0 (Algorithm 4,
	// lines 3-6). The walk's general paths keep it current, so a step
	// probes only the two pairs a swap would make, and an accepted
	// swap's probes become the two new contributions.
	var cbuf [512]float64
	cur := scratch(cbuf[:], nLarge)

	stride := nSmall + 1
	if cells := nLarge * stride; cells <= 2*maxSteps {
		// Dense graphs small relative to the step budget: materialize
		// the thresholded, large-oriented contribution matrix once from
		// the V1 rows' above-threshold prefixes — wt[large*(nSmall+1) +
		// small+1], with column 0 absorbing the "no partner" sentinel —
		// so a step is four unconditional loads. The cells <= 2*maxSteps
		// bound keeps the O(cells) build amortized below one write per
		// probe.
		wt := make([]float64, cells)
		a := g.Rows()
		for u := 0; u < g.N1(); u++ {
			for k := a.Off[u]; k < a.Off[u+1] && a.W[k] > t; k++ {
				if swapped {
					wt[int(a.Opp[k])*stride+u+1] = a.W[k]
				} else {
					wt[u*stride+int(a.Opp[k])+1] = a.W[k]
				}
			}
		}
		for base := 0; base < maxSteps; base += chunk {
			if time.Now().After(deadline) {
				break
			}
			end := min(base+chunk, maxSteps)
			draws := src.pairs(base, end)
			for s := 0; s < end-base; s++ {
				i := draws[2*s]
				j := draws[2*s+1]
				if i == j {
					continue
				}
				pi, pj := int(p[i])+1, int(p[j])+1
				ri, rj := int(i)*stride, int(j)*stride
				// Same association as the two-step accumulation of
				// seedBAH, the reference body in the tests:
				// (gain_i) + (gain_j).
				delta := (wt[rj+pi] - wt[ri+pi]) + (wt[ri+pj] - wt[rj+pj])
				if delta >= 0 {
					p[i], p[j] = p[j], p[i]
				}
			}
		}
		for i := range p {
			cur[i] = wt[i*stride+int(p[i])+1]
		}
	} else if dense, dn2 := g.PairWeights().DenseMatrix(); dense != nil {
		// A direct strided probe of the graph's cached dense matrix
		// (built once per graph, shared by the whole sweep). The step's
		// delta keeps seedBAH's association, (gain_i) + (gain_j), with a
		// missing partner's gain 0.
		strideL, strideS := dn2, 1
		if swapped {
			strideL, strideS = 1, dn2
		}
		for i := 0; i < nSmall; i++ {
			if w := dense[i*strideL+i*strideS]; w > t {
				cur[i] = w
			}
		}
		for base := 0; base < maxSteps; base += chunk {
			if time.Now().After(deadline) {
				break
			}
			end := min(base+chunk, maxSteps)
			draws := src.pairs(base, end)
			for s := 0; s < end-base; s++ {
				i, j := int(draws[2*s]), int(draws[2*s+1])
				if i == j {
					continue
				}
				pi, pj := p[i], p[j]
				wi, wj := 0.0, 0.0 // pi's weight to j, pj's to i
				if pi >= 0 {
					if w := dense[j*strideL+int(pi)*strideS]; w > t {
						wi = w
					}
				}
				if pj >= 0 {
					if w := dense[i*strideL+int(pj)*strideS]; w > t {
						wj = w
					}
				}
				if (wi-cur[i])+(wj-cur[j]) >= 0 {
					p[i], p[j] = pj, pi
					cur[i], cur[j] = wj, wi
				}
			}
		}
	} else {
		// Graphs too large for a dense matrix probe the cached hash
		// map. WeightOrZero folds the existence check into the weight,
		// since an absent edge contributes 0 exactly like a present
		// edge failing w > t.
		lookup := g.PairWeights()
		pairW := func(large, small graph.NodeID) float64 {
			var w float64
			if swapped {
				w = lookup.WeightOrZero(small, large)
			} else {
				w = lookup.WeightOrZero(large, small)
			}
			if w > t {
				return w
			}
			return 0
		}
		for i := 0; i < nSmall; i++ {
			cur[i] = pairW(graph.NodeID(i), p[i])
		}
		for base := 0; base < maxSteps; base += chunk {
			if time.Now().After(deadline) {
				break
			}
			end := min(base+chunk, maxSteps)
			draws := src.pairs(base, end)
			for s := 0; s < end-base; s++ {
				i, j := graph.NodeID(draws[2*s]), graph.NodeID(draws[2*s+1])
				if i == j {
					continue
				}
				pi, pj := p[i], p[j]
				wi, wj := 0.0, 0.0
				if pi >= 0 {
					wi = pairW(j, pi)
				}
				if pj >= 0 {
					wj = pairW(i, pj)
				}
				if (wi-cur[i])+(wj-cur[j]) >= 0 {
					p[i], p[j] = pj, pi
					cur[i], cur[j] = wj, wi
				}
			}
		}
	}

	var pairs []Pair
	for i, w := range cur {
		if w > 0 { // a partner joined by an edge above t
			u, v := graph.NodeID(i), p[i]
			if swapped {
				u, v = v, u
			}
			pairs = append(pairs, Pair{U: u, V: v, W: w})
		}
	}
	SortPairs(pairs)
	return pairs
}
