package core

import "github.com/ccer-go/ccer/internal/graph"

// KRC is Király's Clustering (Algorithm 7 of the paper), the weighted
// Clean-Clean adaptation of Király's linear-time 3/2-approximation to
// maximum stable marriage ("New Algorithm"). Entities of V1 ("men")
// propose down their preference lists — neighbors with edge weight above
// the threshold, in descending weight — and entities of V2 ("women")
// accept a proposal if they are free or strictly prefer the proposer.
// A man who exhausts his list while still free receives one second chance
// and proposes down his list again; on this second pass he also wins ties
// against first-pass fiancés (the "promotion" of Király's second phase).
//
// A man's preference list is his cached adjacency list, sorted by
// descending weight and read from the graph's flat V1 rows
// (graph.Rows, fetched once per call) through a cursor: his list
// is exhausted when the cursor reaches its end or a weight not above t,
// so a proposal is O(1). A call costs O(n + proposals), and a man walks
// his above-threshold prefix at most twice, once per chance.
type KRC struct{}

// Name implements Matcher.
func (KRC) Name() string { return "KRC" }

// Match implements Matcher.
func (KRC) Match(g *graph.Bipartite, t float64) []Pair {
	n1, n2 := g.N1(), g.N2()
	a1 := g.Rows()

	var (
		ptrBuf  [512]int32
		lastBuf [512]bool
		fiBuf   [512]int32
		fwBuf   [512]float64
		enBuf   [512]int32
	)
	ptr := scratch(ptrBuf[:], n1)         // next preference (a1 index) per man
	lastChance := scratch(lastBuf[:], n1) // second-pass flag per man
	fiance := scratch(fiBuf[:], n2)       // current man per woman, or -1
	fianceW := scratch(fwBuf[:], n2)      // weight of the current engagement
	engagedTo := scratch(enBuf[:], n1)    // current woman per man, or -1
	for v := range fiance {
		fiance[v] = -1
	}
	for u := range engagedTo {
		engagedTo[u] = -1
		ptr[u] = a1.Off[u]
	}

	// freeM is a FIFO of free men, seeded in insertion order (Line 6).
	// A man joins it only when he is free and not in it, so it is a ring
	// of n1 slots: queued men from head on, wrapping around.
	var frBuf [512]int32
	freeM := scratch(frBuf[:], n1)
	for u := range freeM {
		freeM[u] = int32(u)
	}
	head, queued := 0, n1
	push := func(u int32) {
		tail := head + queued
		if tail >= n1 {
			tail -= n1
		}
		freeM[tail] = u
		queued++
	}

	accepts := func(v int32, u int32, w float64) bool {
		if w > fianceW[v] {
			return true
		}
		return w == fianceW[v] && lastChance[u] && !lastChance[fiance[v]]
	}

	for queued > 0 {
		u := freeM[head]
		if head++; head == n1 {
			head = 0
		}
		queued--
		if engagedTo[u] >= 0 {
			continue // engaged while waiting in the queue
		}
		k := ptr[u]
		if k >= a1.Off[u+1] || !(a1.W[k] > t) {
			if !lastChance[u] {
				lastChance[u] = true
				ptr[u] = a1.Off[u] // recover the initial queue (Line 29)
				push(u)
			}
			continue // out of chances: u stays a singleton
		}
		v, w := a1.Opp[k], a1.W[k]
		ptr[u]++
		if fiance[v] < 0 {
			fiance[v], fianceW[v], engagedTo[u] = u, w, v
			continue
		}
		if accepts(v, u, w) {
			old := fiance[v]
			engagedTo[old] = -1
			push(old) // old fiancé is free again
			fiance[v], fianceW[v], engagedTo[u] = u, w, v
			continue
		}
		push(u) // rejected: keep proposing
	}

	var pairs []Pair // in U order, so already sorted
	for u, v := range engagedTo {
		if v >= 0 {
			pairs = append(pairs, Pair{U: graph.NodeID(u), V: v, W: fianceW[v]})
		}
	}
	return pairs
}
