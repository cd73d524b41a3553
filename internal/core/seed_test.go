package core

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/ccer-go/ccer/internal/graph"
)

// seedKRC is the previous KRC.Match, kept verbatim as a reference: it
// recomputes a man's above-threshold prefix on every proposal. KRC.Match
// must reproduce it pair for pair.
func seedKRC(g *graph.Bipartite, t float64) []Pair {
	n1, n2 := g.N1(), g.N2()
	a1, _ := g.Adjacency()

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
		opp, ws := adjList(a1, u)
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

// adjList returns node x's neighbors and weights on side a, in
// descending weight order: the per-node lists the seed bodies read.
func adjList(a graph.Adjacency, x int32) ([]int32, []float64) {
	return a.Opp[a.Off[x]:a.Off[x+1]], a.W[a.Off[x]:a.Off[x+1]]
}

// seedCNC is the previous CNC.Match, kept verbatim as a reference:
// union-find over every above-threshold edge. CNC.Match must reproduce
// it pair for pair.
func seedCNC(g *graph.Bipartite, t float64) []Pair {
	n1 := int32(g.N1())
	n := g.N1() + g.N2()
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

// seedUMC is the previous UMC.Match, kept verbatim as a reference: the
// greedy scan of the by-weight permutation, gathering each edge through
// it. UMC.Match must reproduce it pair for pair.
func seedUMC(g *graph.Bipartite, t float64) []Pair {
	var b1, b2 [512]bool
	matched1, matched2 := scratch(b1[:], g.N1()), scratch(b2[:], g.N2())
	var pairs []Pair
	for _, ei := range g.EdgesByWeight() {
		e := g.Edge(ei)
		if e.W <= t {
			break // descending order: everything after is also pruned
		}
		if matched1[e.U] || matched2[e.V] {
			continue
		}
		matched1[e.U], matched2[e.V] = true, true
		pairs = append(pairs, Pair{U: e.U, V: e.V, W: e.W})
	}
	SortPairs(pairs)
	return pairs
}

// seedRSR is the previous RSR.Match, kept verbatim as a reference: it
// scans a rippled center's whole above-threshold prefix for its nearest
// single-node cluster and looks up each pair's weight with g.Weight.
// RSR.Match must reproduce it pair for pair.
func seedRSR(g *graph.Bipartite, t float64) []Pair {
	n1, n2 := g.N1(), g.N2()
	n := n1 + n2
	a1, a2 := g.Adjacency()

	var (
		icBuf [512]bool
		coBuf [512]int32
		swBuf [512]float64
		meBuf [512]int32
	)
	s := &rsrState{n1: n1}
	s.isCenter = scratch(icBuf[:], n)
	s.centerOf = scratch(coBuf[:], n)
	s.simWith = scratch(swBuf[:], n)
	s.member = scratch(meBuf[:], n)
	for i := range s.centerOf {
		s.centerOf[i] = -1
		s.member[i] = -1
	}

	// avgAbove computes the mean weight of the above-threshold prefix of
	// an adjacency list (lists are sorted by descending weight).
	avgAbove := func(ws []float64) float64 {
		sum, cnt := 0.0, 0
		for _, w := range ws {
			if w <= t {
				break
			}
			sum += w
			cnt++
		}
		if cnt == 0 {
			return 0
		}
		return sum / float64(cnt)
	}

	// Seed order: descending average adjacent weight, ties by id.
	var orBuf [512]int32
	var avBuf [512]float64
	order, avg := scratch(orBuf[:], n), scratch(avBuf[:], n)
	for i := 0; i < n1; i++ {
		order[i] = int32(i)
		_, ws := adjList(a1, int32(i))
		avg[i] = avgAbove(ws)
	}
	for j := 0; j < n2; j++ {
		order[n1+j] = int32(n1 + j)
		_, ws := adjList(a2, int32(j))
		avg[n1+j] = avgAbove(ws)
	}
	// The id tie-break makes this a total order, so an unstable sort
	// yields the same (deterministic) permutation.
	slices.SortFunc(order, func(x, y int32) int {
		switch {
		case avg[x] > avg[y]:
			return -1
		case avg[x] < avg[y]:
			return 1
		default:
			return int(x) - int(y)
		}
	})

	// adjOf returns x's neighbors (as global node ids via the returned
	// offset) and weights in descending weight order.
	adjOf := func(x int32) (opp []int32, ws []float64, oppBase int32) {
		if int(x) < n1 {
			opp, ws = adjList(a1, x)
			return opp, ws, int32(n1)
		}
		opp, ws = adjList(a2, x-int32(n1))
		return opp, ws, 0
	}

	for _, vi := range order {
		var toReassign []int32

		// Claim the first eligible adjacent vertex (Lines 11-20).
		claimed := int32(-1)
		opps, ws, base := adjOf(vi)
		for k, sim := range ws {
			if sim <= t {
				break // descending order: prefix exhausted
			}
			vj := base + opps[k]
			if s.isCenter[vj] {
				continue
			}
			if sim > s.simWith[vj] {
				if old := s.centerOf[vj]; old >= 0 && s.member[old] == vj {
					s.member[old] = -1
					toReassign = append(toReassign, old)
				}
				s.simWith[vj] = sim
				s.centerOf[vj] = vi
				claimed = vj
				break
			}
		}

		if claimed >= 0 {
			// vi becomes a center (Lines 21-29); if it was a member
			// elsewhere, its former center ripples.
			if old := s.centerOf[vi]; old >= 0 && old != vi && s.member[old] == vi {
				s.member[old] = -1
				toReassign = append(toReassign, old)
			}
			s.isCenter[vi] = true
			s.member[vi] = claimed
			s.centerOf[vi] = vi
			s.simWith[vi] = 1
		}

		// Ripple: re-place centers reduced to singletons (Lines 30-39).
		for _, vk := range toReassign {
			if s.clusterSize(vk) >= 2 {
				continue // already re-filled by a later steal
			}
			maxSim := 0.0
			cMax := int32(-1)
			kOpps, kWs, kBase := adjOf(vk)
			for k, sim := range kWs {
				if sim <= t {
					break
				}
				vl := kBase + kOpps[k]
				if sim > maxSim && s.clusterSize(vl) < 2 {
					maxSim = sim
					cMax = vl
				}
			}
			if cMax < 0 {
				continue
			}
			// vk joins vl's single-node cluster, forming the pair
			// {vl, vk} with vl as its center.
			s.isCenter[vk] = false
			s.member[vk] = -1
			s.isCenter[cMax] = true
			s.centerOf[cMax] = cMax
			s.member[cMax] = vk
			s.centerOf[vk] = cMax
			s.simWith[vk] = maxSim
		}
	}

	var pairs []Pair
	for x := int32(0); x < int32(n); x++ {
		if !s.isCenter[x] || s.member[x] < 0 {
			continue
		}
		m := s.member[x]
		var u, v graph.NodeID
		if int(x) < n1 {
			u, v = x, m-int32(n1)
		} else {
			u, v = m, x-int32(n1)
		}
		if w, ok := g.Weight(u, v); ok && w > t {
			pairs = append(pairs, Pair{U: u, V: v, W: w})
		}
	}
	SortPairs(pairs)
	return pairs
}

// clusterSize is the cluster size of x as seedRSR reads it; RSR keeps
// the same fact in rsrState.paired.
func (s *rsrState) clusterSize(x int32) int {
	if s.isCenter[x] {
		if s.member[x] >= 0 {
			return 2
		}
		return 1
	}
	if s.centerOf[x] >= 0 {
		return 2 // member of a center's cluster
	}
	return 1 // unassigned singleton
}

// seedThresholds are the thresholds at which a graph's matchings can
// differ: every distinct edge weight (each prunes its own ties), one
// below the minimum weight (which prunes nothing), 0, and one above the
// maximum weight (which prunes everything).
func seedThresholds(g *graph.Bipartite) []float64 {
	lo := 0.0 // the minimum weight; 0 for an edgeless graph
	for i, e := range g.Edges() {
		if i == 0 || e.W < lo {
			lo = e.W
		}
	}
	ts := []float64{lo - 0.5, 0, g.MaxWeight() + 0.5}
	for _, e := range g.Edges() {
		ts = append(ts, e.W)
	}
	slices.Sort(ts)
	return slices.Compact(ts)
}

// seedBAHSteps is BAH's step cap in checkAgainstSeed: enough steps to
// swap often, few enough to run at every threshold of a large graph.
const seedBAHSteps = 300

// checkAgainstSeed compares UMC, RSR, KRC, CNC and BAH (at seedBAHSteps)
// with their seed bodies at every threshold of seedThresholds.
func checkAgainstSeed(t *testing.T, name string, g *graph.Bipartite) {
	t.Helper()
	bah := BAH{Seed: 7, MaxSteps: seedBAHSteps, MaxDuration: time.Hour}
	for _, thr := range seedThresholds(g) {
		for _, c := range []struct {
			alg       string
			got, want []Pair
		}{
			{"UMC", (UMC{}).Match(g, thr), seedUMC(g, thr)},
			{"RSR", (RSR{}).Match(g, thr), seedRSR(g, thr)},
			{"KRC", (KRC{}).Match(g, thr), seedKRC(g, thr)},
			{"CNC", (CNC{}).Match(g, thr), seedCNC(g, thr)},
			{"BAH", bah.Match(g, thr), seedBAH(g, thr, bah.Seed, seedBAHSteps)},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("%s t=%v: %s %d pairs %v, seed %d pairs %v", name, thr, c.alg, len(c.got), c.got, len(c.want), c.want)
			}
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

// quantizedCases are the quantizedGraph shapes that
// TestMatchersMatchSeedImplementations and TestMatchersTiesPin draw at
// seeds 1-6.
var quantizedCases = []struct {
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

func TestMatchersMatchSeedImplementations(t *testing.T) {
	for _, tc := range quantizedCases {
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

// FuzzMatchersVsSeed decodes a graph from the fuzzer's bytes and holds
// UMC, RSR, KRC, CNC and BAH to their seed bodies at every threshold of
// seedThresholds. Weights are bytes on a 1/16 grid, so ties are common.
// Sides are n1 and n2 modulo 1024. Normally data holds 5 bytes an edge:
// U and V as uint16 taken modulo the side sizes, then the weight byte.
// With the top bit of n1 set the graph is dense instead: sides are
// taken modulo 539 (match-cold's 538 at most, so an input stays cheap),
// and every pair (u, v) is an edge, weighted by data's bytes in turn,
// so a short input can describe a 538 x 538 graph. Its seed corpus is
// under testdata/fuzz/FuzzMatchersVsSeed.
func FuzzMatchersVsSeed(f *testing.F) {
	f.Fuzz(func(t *testing.T, n1, n2 uint16, data []byte) {
		s1, s2 := int(n1%1024), int(n2%1024)
		if n1&0x8000 != 0 {
			s1, s2 = s1%539, s2%539
		}
		b := graph.NewBuilder(s1, s2)
		if n1&0x8000 != 0 && len(data) > 0 {
			for k := 0; k < s1*s2; k++ {
				b.Add(int32(k/s2), int32(k%s2), float64(data[k%len(data)]%17)/16)
			}
		}
		for ; n1&0x8000 == 0 && len(data) >= 5 && s1 > 0 && s2 > 0; data = data[5:] {
			u := int(binary.LittleEndian.Uint16(data)) % s1
			v := int(binary.LittleEndian.Uint16(data[2:])) % s2
			b.Add(int32(u), int32(v), float64(data[4]%17)/16)
		}
		checkAgainstSeed(t, "fuzz", b.MustBuild())
	})
}
