package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/ccer-go/ccer/internal/graph"
)

// testMatchers returns the paper's algorithms configured for fast tests
// (BAH with a small step budget) plus the exact baselines.
func testMatchers() []Matcher {
	return []Matcher{
		CNC{}, RSR{}, RCA{},
		BAH{Seed: 99, MaxSteps: 500},
		BMC{Basis: BasisAuto}, BMC{Basis: BasisV1}, BMC{Basis: BasisV2},
		EXC{}, KRC{}, UMC{}, Hungarian{}, Auction{},
	}
}

// Every algorithm must emit a valid 1-1 matching above the threshold on
// arbitrary random graphs and thresholds.
func TestPropertyAllMatchersValid(t *testing.T) {
	f := func(seed int64, tRaw float64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomBipartite(rng, rng.Intn(25)+1, rng.Intn(25)+1, rng.Intn(150))
		th := math.Mod(math.Abs(tRaw), 1)
		for _, m := range testMatchers() {
			if err := ValidateMatching(g, m.Match(g, th), th); err != nil {
				t.Logf("%s: %v", m.Name(), err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// All algorithms are deterministic (BAH given a fixed seed).
func TestPropertyDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomBipartite(rng, 15, 15, 80)
		for _, m := range testMatchers() {
			if !reflect.DeepEqual(m.Match(g, 0.3), m.Match(g, 0.3)) {
				t.Logf("%s not deterministic", m.Name())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// CNC's pairs are isolated mutual-only neighbors, hence always a subset of
// EXC's mutual best matches.
func TestPropertyCNCSubsetOfEXC(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomBipartite(rng, 20, 20, 100)
		th := rng.Float64()
		exc := make(map[[2]graph.NodeID]bool)
		for _, p := range (EXC{}).Match(g, th) {
			exc[[2]graph.NodeID{p.U, p.V}] = true
		}
		for _, p := range (CNC{}).Match(g, th) {
			if !exc[[2]graph.NodeID{p.U, p.V}] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The strictly heaviest edge above the threshold is matched by the greedy
// and best-match families.
func TestPropertyTopEdgeAlwaysMatched(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomBipartite(rng, 15, 15, 60)
		if g.NumEdges() == 0 {
			return true
		}
		byWeight := g.EdgesByWeight()
		top := byWeight[0]
		// Ensure strict maximality (random floats collide with
		// negligible probability, but be explicit).
		if g.NumEdges() > 1 && byWeight[1].W == top.W {
			return true
		}
		th := top.W / 2
		// BMC is excluded: an earlier basis node can claim the top
		// edge's partner with a lighter edge first.
		for _, m := range []Matcher{UMC{}, EXC{}, KRC{}} {
			found := false
			for _, p := range m.Match(g, th) {
				if p.U == top.U && p.V == top.V {
					found = true
					break
				}
			}
			if !found {
				t.Logf("%s missed the top edge", m.Name())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// UMC is a 1/2-approximation of maximum weight matching; Hungarian is the
// exact reference.
func TestPropertyUMCHalfApprox(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomBipartite(rng, 12, 12, 70)
		opt := TotalWeight(Hungarian{}.Match(g, 0))
		umc := TotalWeight(UMC{}.Match(g, 0))
		return umc >= opt/2-1e-9 && umc <= opt+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// The auction baseline is within persons*epsFinal of the Hungarian
// optimum.
func TestPropertyAuctionNearOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomBipartite(rng, 12, 14, 80)
		opt := TotalWeight(Hungarian{}.Match(g, 0))
		auc := TotalWeight(Auction{Eps: 1e-7}.Match(g, 0))
		slack := 12 * 1e-7
		return auc >= opt-slack-1e-9 && auc <= opt+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Hungarian agrees with brute-force enumeration on tiny graphs.
func TestPropertyHungarianExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n1, n2 := rng.Intn(5)+1, rng.Intn(5)+1
		g := randomBipartite(rng, n1, n2, rng.Intn(20))
		opt := bruteForceMaxWeight(g)
		hun := TotalWeight(Hungarian{}.Match(g, 0))
		return math.Abs(opt-hun) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// bruteForceMaxWeight enumerates all matchings of a tiny graph.
func bruteForceMaxWeight(g *graph.Bipartite) float64 {
	edges := g.Edges()
	best := 0.0
	var rec func(i int, used1, used2 uint32, w float64)
	rec = func(i int, used1, used2 uint32, w float64) {
		if w > best {
			best = w
		}
		for j := i; j < len(edges); j++ {
			e := edges[j]
			if used1&(1<<uint(e.U)) != 0 || used2&(1<<uint(e.V)) != 0 {
				continue
			}
			rec(j+1, used1|1<<uint(e.U), used2|1<<uint(e.V), w+e.W)
		}
	}
	rec(0, 0, 0, 0)
	return best
}

// KRC is a 3/2-approximation to maximum stable marriage by size; as a
// weaker sanity property, it must match at least as many pairs as EXC
// (every mutual-best pair is engaged by some man eventually) on graphs
// with distinct weights.
func TestPropertyKRCAtLeastEXCSize(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomBipartite(rng, 18, 18, 90)
		th := rng.Float64() * 0.5
		return len(KRC{}.Match(g, th)) >= len(EXC{}.Match(g, th))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// UMC matches a maximal matching of the pruned graph: no edge above t can
// have both endpoints unmatched.
func TestPropertyUMCMaximal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomBipartite(rng, 15, 15, 80)
		th := rng.Float64() * 0.8
		pairs := UMC{}.Match(g, th)
		used1 := map[graph.NodeID]bool{}
		used2 := map[graph.NodeID]bool{}
		for _, p := range pairs {
			used1[p.U] = true
			used2[p.V] = true
		}
		for _, e := range g.Edges() {
			if e.W > th && !used1[e.U] && !used2[e.V] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// KRC leaves no man unmatched if he has an above-threshold edge to an
// unmatched woman (stability-flavoured maximality).
func TestPropertyKRCMaximal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomBipartite(rng, 15, 15, 80)
		th := rng.Float64() * 0.8
		pairs := KRC{}.Match(g, th)
		used1 := map[graph.NodeID]bool{}
		used2 := map[graph.NodeID]bool{}
		for _, p := range pairs {
			used1[p.U] = true
			used2[p.V] = true
		}
		for _, e := range g.Edges() {
			if e.W > th && !used1[e.U] && !used2[e.V] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Hopcroft-Karp finds a maximum cardinality matching: it never emits
// fewer pairs than any other valid matcher and agrees with brute-force
// maximum cardinality on tiny graphs.
func TestPropertyHopcroftKarpMaximum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomBipartite(rng, rng.Intn(6)+1, rng.Intn(6)+1, rng.Intn(25))
		th := rng.Float64() * 0.5
		hk := HopcroftKarp{}.Match(g, th)
		if err := ValidateMatching(g, hk, th); err != nil {
			t.Log(err)
			return false
		}
		if len(hk) != bruteForceMaxCardinality(g, th) {
			return false
		}
		for _, m := range testMatchers() {
			if len(m.Match(g, th)) > len(hk) {
				t.Logf("%s emitted more pairs than maximum cardinality", m.Name())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Maximal matchings (UMC, KRC) have at least half the maximum
// cardinality.
func TestPropertyMaximalHalfOfMaximum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomBipartite(rng, 20, 20, 120)
		th := rng.Float64() * 0.6
		max := len(HopcroftKarp{}.Match(g, th))
		for _, m := range []Matcher{UMC{}, KRC{}} {
			if 2*len(m.Match(g, th)) < max {
				t.Logf("%s below half of maximum cardinality", m.Name())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// bruteForceMaxCardinality enumerates matchings of a tiny graph.
func bruteForceMaxCardinality(g *graph.Bipartite, th float64) int {
	var edges []graph.Edge
	for _, e := range g.Edges() {
		if e.W > th {
			edges = append(edges, e)
		}
	}
	best := 0
	var rec func(i int, used1, used2 uint32, size int)
	rec = func(i int, used1, used2 uint32, size int) {
		if size > best {
			best = size
		}
		for j := i; j < len(edges); j++ {
			e := edges[j]
			if used1&(1<<uint(e.U)) != 0 || used2&(1<<uint(e.V)) != 0 {
				continue
			}
			rec(j+1, used1|1<<uint(e.U), used2|1<<uint(e.V), size+1)
		}
	}
	rec(0, 0, 0, 0)
	return best
}
