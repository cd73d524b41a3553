// Package core implements the eight bipartite graph matching algorithms
// evaluated by Papadakis et al., "Bipartite Graph Matching Algorithms for
// Clean-Clean Entity Resolution: An Empirical Evaluation" (EDBT 2022),
// plus two exact/near-exact maximum-weight baselines (Hungarian and the
// Bertsekas auction algorithm) that the paper excludes by its complexity
// criterion but that are useful as optimality references.
//
// Every algorithm receives a weighted bipartite similarity graph
// (internal/graph) and a similarity threshold t, and returns a 1-1
// matching: a set of (u,v) pairs such that no node appears twice.
// Entities not present in any pair are implicitly singletons, which is how
// the paper's clustering output (partitions of size one or two) maps onto
// a pair list.
//
// All algorithms are deterministic given their configuration; BAH is
// stochastic by design and takes an explicit seed.
package core

import (
	"fmt"
	"slices"

	"github.com/ccer-go/ccer/internal/graph"
)

// Pair is a matched entity pair: node U of V1 with node V of V2, connected
// by an edge of weight W in the input graph.
type Pair struct {
	U graph.NodeID
	V graph.NodeID
	W float64
}

// Matcher is a bipartite graph matching algorithm. Match must return a 1-1
// matching of the input graph, only using edges with weight strictly
// greater than t (the paper's pruning rule "e.sim > t").
//
// Goroutine safety: every matcher in this package keeps its mutable
// working state local to the Match call, so a single matcher value may be
// shared by concurrent Match calls on the same or different graphs. The
// stochastic matchers (BAH here, the Q-learning matcher in internal/rl)
// additionally implement Cloner so that parallel harnesses can hand each
// worker its own copy and keep that guarantee explicit; Clone respects it
// for both kinds.
type Matcher interface {
	// Name returns the short algorithm identifier used throughout the
	// paper, e.g. "UMC".
	Name() string
	// Match computes the matching.
	Match(g *graph.Bipartite, t float64) []Pair
}

// Cloner is implemented by matchers that carry per-instance configuration
// (seeds, caps) a parallel harness should copy per worker rather than
// share. CloneMatcher must return an independent matcher that produces
// the same output as the original for the same input.
type Cloner interface {
	CloneMatcher() Matcher
}

// Clone returns a per-worker copy of m: the CloneMatcher result when m
// implements Cloner, and m itself otherwise (the stateless matchers in
// this package are safe to share).
func Clone(m Matcher) Matcher {
	if c, ok := m.(Cloner); ok {
		return c.CloneMatcher()
	}
	return m
}

// CloneCache lazily hands each worker of a parallel harness its own
// clone of every matcher in a list. It is safe for concurrent use as
// long as each worker index is owned by exactly one goroutine (the
// par.For contract).
type CloneCache struct {
	matchers []Matcher
	clones   [][]Matcher
}

// NewCloneCache returns a cache for the matcher list across `workers`
// worker slots.
func NewCloneCache(matchers []Matcher, workers int) *CloneCache {
	if workers < 1 {
		workers = 1
	}
	return &CloneCache{matchers: matchers, clones: make([][]Matcher, workers)}
}

// Get returns worker w's private clone of matcher mi, creating it on
// first use.
func (c *CloneCache) Get(w, mi int) Matcher {
	if c.clones[w] == nil {
		c.clones[w] = make([]Matcher, len(c.matchers))
	}
	if c.clones[w][mi] == nil {
		c.clones[w][mi] = Clone(c.matchers[mi])
	}
	return c.clones[w][mi]
}

// scratch returns buf[:n] when the caller's stack buffer is large
// enough, else a heap slice. The matchers' per-call working arrays go
// through it: a threshold sweep makes thousands of Match calls, and on
// the small graphs of a corpus the arrays then never leave the stack.
// buf must be freshly zeroed (a `var` array is).
func scratch[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]T, n)
}

// SortPairs orders pairs by (U, V), giving a canonical form for
// comparisons and deterministic output. Matchers that emit in node
// order (e.g. BAH's unswapped orientation) hit the O(n) sorted check
// and skip the sort.
func SortPairs(pairs []Pair) {
	sorted := true
	for i := 1; i < len(pairs); i++ {
		if pairs[i-1].U > pairs[i].U ||
			(pairs[i-1].U == pairs[i].U && pairs[i-1].V > pairs[i].V) {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	slices.SortFunc(pairs, func(a, b Pair) int {
		if a.U != b.U {
			return int(a.U) - int(b.U)
		}
		return int(a.V) - int(b.V)
	})
}

// TotalWeight sums the edge weights of a matching.
func TotalWeight(pairs []Pair) float64 {
	s := 0.0
	for _, p := range pairs {
		s += p.W
	}
	return s
}

// ValidateMatching checks that pairs form a valid 1-1 matching of g with
// every pair weight strictly above t: no node is used twice, every pair is
// an existing edge, and recorded weights agree with the graph. It is test
// support: this package's tests and internal/rl's call it.
func ValidateMatching(g *graph.Bipartite, pairs []Pair, t float64) error {
	used1 := make(map[graph.NodeID]bool, len(pairs))
	used2 := make(map[graph.NodeID]bool, len(pairs))
	for _, p := range pairs {
		if p.U < 0 || int(p.U) >= g.N1() || p.V < 0 || int(p.V) >= g.N2() {
			return fmt.Errorf("core: pair (%d,%d) out of range", p.U, p.V)
		}
		if used1[p.U] {
			return fmt.Errorf("core: node %d of V1 matched twice", p.U)
		}
		if used2[p.V] {
			return fmt.Errorf("core: node %d of V2 matched twice", p.V)
		}
		used1[p.U], used2[p.V] = true, true
		w, ok := g.Weight(p.U, p.V)
		if !ok {
			return fmt.Errorf("core: pair (%d,%d) is not an edge", p.U, p.V)
		}
		if w != p.W {
			return fmt.Errorf("core: pair (%d,%d) weight %v, graph has %v", p.U, p.V, p.W, w)
		}
		if !(w > t) {
			return fmt.Errorf("core: pair (%d,%d) weight %v not above threshold %v", p.U, p.V, w, t)
		}
	}
	return nil
}

// ByName returns the matcher with the given paper identifier, or nil.
// Recognized names: CNC, RSR, RCA, BAH, BMC, EXC, KRC, UMC, HUN, AUC.
// The paper's eight get their default configurations: BAH the given
// seed and its default step cap, and BMC BasisAuto, which tries both
// sides and keeps the heavier matching, mirroring the paper's "examine
// both options and retain the best one".
func ByName(name string, bahSeed int64) Matcher {
	switch name {
	case "CNC":
		return CNC{}
	case "RSR":
		return RSR{}
	case "RCA":
		return RCA{}
	case "BAH":
		return NewBAH(bahSeed)
	case "BMC":
		return BMC{Basis: BasisAuto}
	case "EXC":
		return EXC{}
	case "KRC":
		return KRC{}
	case "UMC":
		return UMC{}
	case "HUN":
		return Hungarian{}
	case "AUC":
		return Auction{}
	}
	return nil
}

// Names lists the paper's eight algorithm identifiers in presentation
// order.
func Names() []string {
	return []string{"CNC", "RSR", "RCA", "BAH", "BMC", "EXC", "KRC", "UMC"}
}
