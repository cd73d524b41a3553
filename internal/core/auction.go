package core

import "github.com/ccer-go/ccer/internal/graph"

// Auction is the Bertsekas forward auction algorithm for maximum weight
// bipartite matching on sparse graphs. Persons (the smaller side)
// repeatedly bid for their most valuable object — weight minus current
// price — raising its price by the bid increment plus ε; a person whose
// best available value drops below zero stays unmatched, which makes the
// algorithm solve maximum weight matching (with an outside option worth 0)
// rather than perfect assignment.
//
// Because prices start at zero and only rise, a single ε-phase terminates
// and yields a matching whose total weight is within |persons|·ε of the
// optimum; the tests verify this against Hungarian. Note that ε-scaling
// phases are deliberately not used: with the outside option, carrying
// inflated prices from a large-ε phase into the next would permanently
// lock persons out.
//
// Auction serves, like Hungarian, as an optimality baseline outside the
// paper's eight algorithms.
type Auction struct {
	// Eps is the bid increment; if zero, 1e-4 is used. The matching is
	// within |persons|·Eps of the maximum weight.
	Eps float64
}

// Name implements Matcher.
func (Auction) Name() string { return "AUC" }

// Match implements Matcher.
func (a Auction) Match(g *graph.Bipartite, t float64) []Pair {
	eps := a.Eps
	if eps <= 0 {
		eps = 1e-4
	}

	// Persons are the smaller side.
	swapped := g.N1() > g.N2()
	nPersons, nObjects := g.N1(), g.N2()
	if swapped {
		nPersons, nObjects = nObjects, nPersons
	}
	if nPersons == 0 {
		return nil
	}

	// cand[i] lists (object, weight) for person i, weights above t.
	type cand struct {
		obj int32
		w   float64
	}
	cands := make([][]cand, nPersons)
	for _, e := range g.Edges() {
		if !(e.W > t) {
			continue
		}
		p, o := int32(e.U), int32(e.V)
		if swapped {
			p, o = o, p
		}
		cands[p] = append(cands[p], cand{obj: o, w: e.W})
	}

	prices := make([]float64, nObjects)
	owner := make([]int32, nObjects) // person owning the object, or -1
	for o := range owner {
		owner[o] = -1
	}

	q := fifo{}
	for p := range cands {
		if len(cands[p]) > 0 {
			q.push(int32(p))
		}
	}
	for !q.empty() {
		p := q.pop()
		best, second := -1.0, 0.0
		bestObj := int32(-1)
		for _, cd := range cands[p] {
			val := cd.w - prices[cd.obj]
			if val > best {
				second = best
				best = val
				bestObj = cd.obj
			} else if val > second {
				second = val
			}
		}
		// Staying unmatched is worth 0; strictly below that, drop out.
		// Prices only rise, so the person can never profit later.
		if bestObj < 0 || best < 0 {
			continue
		}
		if second < 0 {
			second = 0
		}
		prices[bestObj] += best - second + eps
		if prev := owner[bestObj]; prev >= 0 {
			q.push(prev)
		}
		owner[bestObj] = p
	}

	var pairs []Pair
	for o := int32(0); int(o) < nObjects; o++ {
		p := owner[o]
		if p < 0 {
			continue
		}
		u, v := graph.NodeID(p), graph.NodeID(o)
		if swapped {
			u, v = v, u
		}
		if w, ok := g.Weight(u, v); ok && w > t {
			pairs = append(pairs, Pair{U: u, V: v, W: w})
		}
	}
	SortPairs(pairs)
	return pairs
}

// fifo is a simple queue of person ids.
type fifo struct {
	items []int32
	head  int
}

func (q *fifo) push(x int32) { q.items = append(q.items, x) }
func (q *fifo) empty() bool  { return q.head >= len(q.items) }
func (q *fifo) pop() int32 {
	x := q.items[q.head]
	q.head++
	return x
}
