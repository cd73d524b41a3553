package core

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/ccer-go/ccer/internal/graph"
)

// seedKRC is the previous KRC.Match, kept verbatim as a reference: it
// recomputes a man's above-threshold prefix on every proposal. KRC.Match
// must reproduce it pair for pair.
func seedKRC(g *graph.Bipartite, t float64) []Pair {
	n1, n2 := g.N1(), g.N2()

	var (
		ptrBuf  [512]int32
		lastBuf [512]bool
		fiBuf   [512]int32
		fwBuf   [512]float64
		enBuf   [512]int32
	)
	ptr := scratch(ptrBuf[:], n1)         // next preference index per man
	lastChance := scratch(lastBuf[:], n1) // second-pass flag per man
	fiance := scratch(fiBuf[:], n2)       // current man per woman, or -1
	fianceW := scratch(fwBuf[:], n2)      // weight of the current engagement
	engagedTo := scratch(enBuf[:], n1)    // current woman per man, or -1
	for v := range fiance {
		fiance[v] = -1
	}
	for u := range engagedTo {
		engagedTo[u] = -1
	}

	// freeM is a FIFO of free men, seeded in insertion order (Line 6).
	freeM := make([]int32, 0, n1)
	for u := 0; u < n1; u++ {
		freeM = append(freeM, int32(u))
	}

	// prefs returns man u's preference list: the prefix of his adjacency
	// with weight above t (adjacency is already descending by weight).
	prefs := func(u int32) ([]int32, []float64) {
		opp, ws := g.AdjList1(u)
		for i, w := range ws {
			if w <= t {
				return opp[:i], ws[:i]
			}
		}
		return opp, ws
	}

	accepts := func(v int32, u int32, w float64) bool {
		if w > fianceW[v] {
			return true
		}
		return w == fianceW[v] && lastChance[u] && !lastChance[fiance[v]]
	}

	for len(freeM) > 0 {
		u := freeM[0]
		freeM = freeM[1:]
		if engagedTo[u] >= 0 {
			continue // engaged while waiting in the queue
		}
		opps, ws := prefs(u)
		if int(ptr[u]) >= len(ws) {
			if !lastChance[u] {
				lastChance[u] = true
				ptr[u] = 0 // recover the initial queue (Line 29)
				freeM = append(freeM, u)
			}
			continue // out of chances: u stays a singleton
		}
		v, w := opps[ptr[u]], ws[ptr[u]]
		ptr[u]++
		if fiance[v] < 0 {
			fiance[v], fianceW[v], engagedTo[u] = u, w, v
			continue
		}
		if accepts(v, u, w) {
			old := fiance[v]
			engagedTo[old] = -1
			freeM = append(freeM, old) // old fiancé is free again
			fiance[v], fianceW[v], engagedTo[u] = u, w, v
			continue
		}
		freeM = append(freeM, u) // rejected: keep proposing
	}

	var pairs []Pair
	for v := int32(0); v < int32(n2); v++ {
		if fiance[v] >= 0 {
			pairs = append(pairs, Pair{U: fiance[v], V: v, W: fianceW[v]})
		}
	}
	SortPairs(pairs)
	return pairs
}

// seedCNC is the previous CNC.Match, kept verbatim as a reference:
// union-find over every above-threshold edge. CNC.Match must reproduce
// it pair for pair.
func seedCNC(g *graph.Bipartite, t float64) []Pair {
	n1 := int32(g.N1())
	n := g.NumNodes()
	var pbuf, sbuf [512]int32
	parent, size := scratch(pbuf[:], n), scratch(sbuf[:], n)
	for i := range parent {
		parent[i] = int32(i)
		size[i] = 1
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	// Iterating the descending-weight permutation touches only the
	// above-threshold edges: everything after the first pruned edge is
	// pruned too.
	byWeight := g.EdgesByWeight()
	above := len(byWeight)
	for k, ei := range byWeight {
		e := g.Edge(ei)
		if e.W <= t {
			above = k
			break
		}
		ra, rb := find(int32(e.U)), find(n1+int32(e.V))
		if ra == rb {
			continue
		}
		if size[ra] < size[rb] {
			ra, rb = rb, ra
		}
		parent[rb] = ra
		size[ra] += size[rb]
	}
	var pairs []Pair
	for _, ei := range byWeight[:above] {
		e := g.Edge(ei)
		if size[find(int32(e.U))] == 2 {
			pairs = append(pairs, Pair{U: e.U, V: e.V, W: e.W})
		}
	}
	SortPairs(pairs)
	return pairs
}

// seedThresholds are the thresholds at which a graph's matchings can
// differ: every distinct edge weight (each prunes its own ties), one
// below the minimum weight (which prunes nothing), 0, and one above the
// maximum weight (which prunes everything).
func seedThresholds(g *graph.Bipartite) []float64 {
	ts := []float64{g.MinWeight() - 0.5, 0, g.MaxWeight() + 0.5}
	for _, e := range g.Edges() {
		ts = append(ts, e.W)
	}
	slices.Sort(ts)
	return slices.Compact(ts)
}

// checkAgainstSeed compares KRC and CNC with their seed bodies at every
// threshold of seedThresholds.
func checkAgainstSeed(t *testing.T, name string, g *graph.Bipartite) {
	t.Helper()
	for _, thr := range seedThresholds(g) {
		if got, want := (KRC{}).Match(g, thr), seedKRC(g, thr); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s t=%v: KRC %d pairs %v, seed %d pairs %v", name, thr, len(got), got, len(want), want)
		}
		if got, want := (CNC{}).Match(g, thr), seedCNC(g, thr); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s t=%v: CNC %d pairs %v, seed %d pairs %v", name, thr, len(got), got, len(want), want)
		}
	}
}

// quantizedGraph draws m random edges over n1 x n2 nodes with weights on
// a grid of the given number of levels, so weights tie often.
func quantizedGraph(seed int64, n1, n2, m, levels int) *graph.Bipartite {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n1, n2)
	for k := 0; k < m && n1 > 0 && n2 > 0; k++ {
		b.Add(int32(rng.Intn(n1)), int32(rng.Intn(n2)), float64(1+rng.Intn(levels))/float64(levels))
	}
	return b.MustBuild()
}

func TestKRCAndCNCMatchSeedImplementations(t *testing.T) {
	cases := []struct {
		name                  string
		n1, n2, edges, levels int
	}{
		{"empty", 0, 0, 0, 1},
		{"empty-V1", 0, 7, 0, 1},
		{"empty-V2", 7, 0, 0, 1},
		{"no-edges", 5, 9, 0, 1},
		{"one-level", 12, 10, 40, 1},
		{"isolated-nodes", 60, 80, 25, 3},
		{"sparse", 30, 25, 45, 4},
		{"ties", 20, 20, 150, 3},
		{"wide", 8, 40, 90, 5},
		{"tall", 40, 8, 90, 5},
		// Sides above 512 take the heap branch of scratch.
		{"heap-scratch", 600, 700, 4000, 16},
		{"heap-scratch-V2", 300, 900, 3000, 8},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 6; seed++ {
			g := quantizedGraph(seed, tc.n1, tc.n2, tc.edges, tc.levels)
			checkAgainstSeed(t, tc.name, g)
		}
	}
	// A dense graph of match-cold's size (538 x 538), every pair an edge.
	rng := rand.New(rand.NewSource(538))
	b := graph.NewBuilder(538, 538)
	for u := int32(0); u < 538; u++ {
		for v := int32(0); v < 538; v++ {
			b.Add(u, v, float64(rng.Intn(33))/32)
		}
	}
	checkAgainstSeed(t, "dense-538", b.MustBuild())
}

// FuzzMatchersVsSeed decodes a graph from the fuzzer's bytes (5 bytes
// an edge: U and V as uint16 taken modulo the side sizes, and a weight
// byte on a 1/16 grid, so ties are common) and holds KRC and CNC to
// their seed bodies at every threshold of seedThresholds. Its seed
// corpus is under testdata/fuzz/FuzzMatchersVsSeed.
func FuzzMatchersVsSeed(f *testing.F) {
	f.Fuzz(func(t *testing.T, n1, n2 uint16, data []byte) {
		s1, s2 := int(n1%1024), int(n2%1024)
		b := graph.NewBuilder(s1, s2)
		for ; len(data) >= 5 && s1 > 0 && s2 > 0; data = data[5:] {
			u := int(binary.LittleEndian.Uint16(data)) % s1
			v := int(binary.LittleEndian.Uint16(data[2:])) % s2
			b.Add(int32(u), int32(v), float64(data[4]%17)/16)
		}
		checkAgainstSeed(t, "fuzz", b.MustBuild())
	})
}
