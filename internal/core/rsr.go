package core

import (
	"slices"

	"github.com/ccer-go/ccer/internal/graph"
)

// RSR is Ricochet Sequential Rippling clustering (Algorithm 1 of the
// paper), the Clean-Clean adaptation of the homonymous Dirty-ER algorithm
// of Wijaya & Bressan: partitions hold at most one entity from each
// collection.
//
// After pruning edges not above the threshold, nodes of both sides are
// sorted by descending average adjacent-edge weight and processed as
// candidate seeds. A seed claims the first adjacent vertex that is
// unassigned or closer to the seed than to its current partition's center;
// a center whose partition is thereby reduced to a singleton is re-placed
// into its nearest single-node cluster ("rippling").
//
// The pruning is implemented as a filtered view: adjacency lists are
// sorted by descending weight, so the above-threshold edges of a node are
// a prefix and no pruned graph copy is materialized. Both sides' lists
// are read from the graph's flat arrays (graph.Adjacency, fetched once
// per call). Because a list is descending, a ripple takes the first
// single-node cluster on it: no later entry can beat its weight. A
// pair's weight is the one its member recorded on joining, so the
// output needs no edge lookups.
//
// Two points the paper's pseudocode leaves implicit are resolved here the
// way the accompanying text describes them: (i) stealing an unassigned
// vertex does not schedule that vertex itself for re-assignment (only a
// center that actually lost its single member ripples), and (ii) a rippled
// center may join any adjacent node whose current cluster holds fewer than
// two entities, forming a pair with it ("placed in its nearest single-node
// cluster"). Time complexity O(nm).
type RSR struct{}

// Name implements Matcher.
func (RSR) Name() string { return "RSR" }

// rsrState tracks cluster membership over global node ids: V1 node u is
// id u, V2 node v is id n1+v.
type rsrState struct {
	n1       int
	isCenter []bool
	centerOf []int32   // global id of the center a node is attached to, or -1
	simWith  []float64 // similarity to the current center
	member   []int32   // single member attached to a center, or -1
	// paired[x] reports whether x's cluster holds two nodes: x is a
	// center with a member, or a node attached to a center. Match
	// updates it beside every write to isCenter, centerOf and member.
	paired []bool
}

// Match implements Matcher.
func (RSR) Match(g *graph.Bipartite, t float64) []Pair {
	n1, n2 := g.N1(), g.N2()
	n := n1 + n2
	a1, a2 := g.Adjacency()

	var (
		icBuf [512]bool
		coBuf [512]int32
		swBuf [512]float64
		meBuf [512]int32
		paBuf [512]bool
	)
	s := &rsrState{n1: n1}
	s.isCenter = scratch(icBuf[:], n)
	s.centerOf = scratch(coBuf[:], n)
	s.simWith = scratch(swBuf[:], n)
	s.member = scratch(meBuf[:], n)
	s.paired = scratch(paBuf[:], n)
	for i := range s.centerOf {
		s.centerOf[i] = -1
		s.member[i] = -1
	}

	// avgAbove computes the mean weight of the above-threshold prefix of
	// an adjacency list (lists are sorted by descending weight).
	avgAbove := func(ws []float64) float64 {
		sum, cnt := 0.0, 0
		for _, w := range ws {
			if !(w > t) {
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

	// Seed order: descending average adjacent weight, ties by id. The
	// id tie-break makes this a total order, so an unstable sort yields
	// the same (deterministic) permutation. Sorting (avg, id) values
	// keeps the compares off the avg array.
	type seed struct {
		avg float64
		id  int32
	}
	var sdBuf [512]seed
	seeds := scratch(sdBuf[:], n)
	for i := 0; i < n1; i++ {
		seeds[i] = seed{avgAbove(a1.W[a1.Off[i]:a1.Off[i+1]]), int32(i)}
	}
	for j := 0; j < n2; j++ {
		seeds[n1+j] = seed{avgAbove(a2.W[a2.Off[j]:a2.Off[j+1]]), int32(n1 + j)}
	}
	slices.SortFunc(seeds, func(x, y seed) int {
		switch {
		case x.avg > y.avg:
			return -1
		case x.avg < y.avg:
			return 1
		default:
			return int(x.id) - int(y.id)
		}
	})

	// adjOf returns x's neighbors (as global node ids via the returned
	// offset) and weights in descending weight order.
	adjOf := func(x int32) (opp []int32, ws []float64, oppBase int32) {
		if int(x) < n1 {
			lo, hi := a1.Off[x], a1.Off[x+1]
			return a1.Opp[lo:hi], a1.W[lo:hi], int32(n1)
		}
		lo, hi := a2.Off[x-int32(n1)], a2.Off[x-int32(n1)+1]
		return a2.Opp[lo:hi], a2.W[lo:hi], 0
	}

	for _, sd := range seeds {
		vi := sd.id
		var toReassign []int32

		// Claim the first eligible adjacent vertex (Lines 11-20).
		claimed := int32(-1)
		opps, ws, base := adjOf(vi)
		for k, sim := range ws {
			if !(sim > t) {
				break // descending order: prefix exhausted
			}
			vj := base + opps[k]
			if s.isCenter[vj] {
				continue
			}
			if sim > s.simWith[vj] {
				if old := s.centerOf[vj]; old >= 0 && s.member[old] == vj {
					s.member[old] = -1
					s.paired[old] = false
					toReassign = append(toReassign, old)
				}
				s.simWith[vj] = sim
				s.centerOf[vj] = vi
				s.paired[vj] = true
				claimed = vj
				break
			}
		}

		if claimed >= 0 {
			// vi becomes a center (Lines 21-29); if it was a member
			// elsewhere, its former center ripples.
			if old := s.centerOf[vi]; old >= 0 && old != vi && s.member[old] == vi {
				s.member[old] = -1
				s.paired[old] = false
				toReassign = append(toReassign, old)
			}
			s.isCenter[vi] = true
			s.member[vi] = claimed
			s.centerOf[vi] = vi
			s.simWith[vi] = 1
			s.paired[vi] = true
		}

		// Ripple: re-place centers reduced to singletons (Lines 30-39).
		for _, vk := range toReassign {
			if s.paired[vk] {
				continue // already re-filled by a later steal
			}
			// The first single-node cluster on vk's descending list is
			// its nearest; it is taken if its weight is above 0.
			maxSim := 0.0
			cMax := int32(-1)
			kOpps, kWs, kBase := adjOf(vk)
			for k, sim := range kWs {
				if !(sim > t) {
					break
				}
				if vl := kBase + kOpps[k]; !s.paired[vl] {
					if sim > 0 {
						maxSim, cMax = sim, vl
					}
					break
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
			s.paired[vk], s.paired[cMax] = true, true
		}
	}

	var pairs []Pair
	for x := int32(0); x < int32(n); x++ {
		if !s.isCenter[x] || s.member[x] < 0 {
			continue
		}
		// The member recorded its edge to x's weight on joining.
		m := s.member[x]
		if int(x) < n1 {
			pairs = append(pairs, Pair{U: x, V: m - int32(n1), W: s.simWith[m]})
		} else {
			pairs = append(pairs, Pair{U: m, V: x - int32(n1), W: s.simWith[m]})
		}
	}
	SortPairs(pairs)
	return pairs
}
