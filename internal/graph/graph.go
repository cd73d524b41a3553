// Package graph provides the bipartite similarity graph that is the input
// to every Clean-Clean ER bipartite matching algorithm.
//
// A Bipartite graph connects two clean (duplicate-free) entity collections
// V1 and V2. Nodes are dense integer indices local to their side: V1 nodes
// are 0..N1-1 and V2 nodes are 0..N2-1. Every edge crosses sides and
// carries a similarity weight, normally in [0,1] (see NormalizeMinMax).
//
// Graphs are immutable once built. Construction goes through a Builder so
// that adjacency lists can be laid out contiguously (CSR-style) and sorted
// by descending weight exactly once; the matching algorithms in
// internal/core rely on that ordering for their best-match scans.
package graph

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// NodeID identifies a node within one side of a bipartite graph.
type NodeID = int32

// Edge is a weighted edge between node U of V1 and node V of V2.
type Edge struct {
	U NodeID  // index in V1
	V NodeID  // index in V2
	W float64 // similarity weight
}

// Builder accumulates edges for a Bipartite graph.
// The zero value is not usable; call NewBuilder.
type Builder struct {
	n1, n2 int
	edges  []Edge
	err    error
}

// NewBuilder returns a Builder for a graph with n1 nodes on the V1 side
// and n2 nodes on the V2 side.
func NewBuilder(n1, n2 int) *Builder {
	b := &Builder{n1: n1, n2: n2}
	switch {
	case n1 < 0 || n2 < 0:
		b.err = fmt.Errorf("graph: negative side size (%d, %d)", n1, n2)
	case n1 > math.MaxInt32 || n2 > math.MaxInt32:
		b.err = fmt.Errorf("graph: side size (%d, %d) beyond the NodeID range", n1, n2)
	}
	return b
}

// Add records an edge between u in V1 and v in V2 with weight w.
// Errors are deferred and reported by Build.
func (b *Builder) Add(u, v NodeID, w float64) {
	if b.err != nil {
		return
	}
	switch {
	case u < 0 || int(u) >= b.n1:
		b.err = fmt.Errorf("graph: node %d out of range for V1 of size %d", u, b.n1)
	case v < 0 || int(v) >= b.n2:
		b.err = fmt.Errorf("graph: node %d out of range for V2 of size %d", v, b.n2)
	case math.IsNaN(w) || math.IsInf(w, 0):
		b.err = fmt.Errorf("graph: non-finite weight %v for edge (%d,%d)", w, u, v)
	default:
		b.edges = append(b.edges, Edge{U: u, V: v, W: w})
	}
}

// Reserve ensures capacity for n further Add calls, for callers that
// know the edge count up front.
func (b *Builder) Reserve(n int) {
	if b.err != nil || cap(b.edges)-len(b.edges) >= n {
		return
	}
	es := make([]Edge, len(b.edges), len(b.edges)+n)
	copy(es, b.edges)
	b.edges = es
}

// Build finalizes the graph. Duplicate (u,v) edges are merged keeping the
// maximum weight, matching how the paper's pipeline treats repeated
// candidate pairs.
func (b *Builder) Build() (*Bipartite, error) {
	if b.err != nil {
		return nil, b.err
	}
	edges := dedupeMax(b.edges, b.n1)
	return newBipartite(b.n1, b.n2, edges), nil
}

// MustBuild is Build that panics on error. It is test support: the
// tests of this package and of internal/core, eval, rl, serve, cluster
// and simgraph build their literal graphs with it.
func (b *Builder) MustBuild() *Bipartite {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// BuildNormalized is Build followed by NormalizeMinMax, fused: the
// min-max rescale is applied in place to the deduplicated edge list
// before the graph is assembled, so the edges are not copied a second
// time. The result is bit-identical to Build().NormalizeMinMax(): both
// routes rescale through rescaleMinMax. Like Build, it takes ownership
// of the accumulated edges; the builder must not be reused.
func (b *Builder) BuildNormalized() (*Bipartite, error) {
	if b.err != nil {
		return nil, b.err
	}
	edges := dedupeMax(b.edges, b.n1)
	rescaleMinMax(edges)
	return newBipartite(b.n1, b.n2, edges), nil
}

// weightRange returns the smallest and largest edge weight (+Inf and
// -Inf for no edges).
func weightRange(edges []Edge) (minW, maxW float64) {
	minW, maxW = math.Inf(1), math.Inf(-1)
	for _, e := range edges {
		if e.W < minW {
			minW = e.W
		}
		if e.W > maxW {
			maxW = e.W
		}
	}
	return minW, maxW
}

// rescaleMinMax maps the weights onto [0,1] in place by min-max
// normalization; if all weights are equal, they all become 1.
func rescaleMinMax(edges []Edge) {
	minW, maxW := weightRange(edges)
	span := maxW - minW
	if math.IsInf(span, 1) {
		// Finite weights more than math.MaxFloat64 apart: the halved
		// span is finite. Only such a span takes this branch, so every
		// other graph rescales by the expression below, bit for bit.
		minW, span = minW/2, maxW/2-minW/2
		for i := range edges {
			edges[i].W = (edges[i].W/2 - minW) / span
		}
		return
	}
	for i := range edges {
		w := 1.0
		if span > 0 {
			w = (edges[i].W - minW) / span
		}
		edges[i].W = w
	}
}

func dedupeMax(edges []Edge, n1 int) []Edge {
	if len(edges) < 2 {
		return edges
	}
	// The schema-based and semantic generation kernels emit edges
	// already strictly (U,V)-ordered (U-rows in order, V ascending, no
	// duplicates); detecting that skips the copy, the sort and the
	// dedupe scan. The bag and n-gram-graph kernels assemble V-major
	// (strictly (V,U)-ordered), which a stable counting transpose turns
	// into the same canonical order in O(|E|+n1) instead of a
	// comparison sort. Anything else takes the generic sort+dedupe over
	// a copy, exactly as a from-scratch build would.
	if isSortedUV(edges) {
		return edges
	}
	if out, ok := transposeVMajor(edges, n1); ok {
		return out
	}
	es := append([]Edge(nil), edges...)
	slices.SortFunc(es, func(a, b Edge) int {
		switch {
		case a.U != b.U:
			return int(a.U) - int(b.U)
		case a.V != b.V:
			return int(a.V) - int(b.V)
		case a.W > b.W:
			return -1
		case a.W < b.W:
			return 1
		default:
			return 0
		}
	})
	out := es[:1]
	for _, e := range es[1:] {
		last := &out[len(out)-1]
		if e.U == last.U && e.V == last.V {
			continue // keep the max weight, which sorted first
		}
		out = append(out, e)
	}
	return out
}

// isSortedUV reports whether edges are strictly (U,V)-ascending (which
// also implies no duplicate pairs), the canonical edge-list order.
func isSortedUV(es []Edge) bool {
	for i := 1; i < len(es); i++ {
		if es[i-1].U > es[i].U ||
			(es[i-1].U == es[i].U && es[i-1].V >= es[i].V) {
			return false
		}
	}
	return true
}

// transposeVMajor converts a strictly (V,U)-ascending edge list (the
// assembly order of the V-major row kernels) into canonical (U,V)
// order with a stable counting sort on U. Strict (V,U) order rules out
// duplicate pairs, and stability keeps V ascending within each U, so
// the result is exactly what the generic sort+dedupe would produce.
// Returns ok=false when the input is not strictly V-major.
func transposeVMajor(es []Edge, n1 int) ([]Edge, bool) {
	for i := 1; i < len(es); i++ {
		if es[i-1].V > es[i].V ||
			(es[i-1].V == es[i].V && es[i-1].U >= es[i].U) {
			return nil, false
		}
	}
	next := make([]int32, n1+1)
	for _, e := range es {
		next[e.U+1]++
	}
	for u := 0; u < n1; u++ {
		next[u+1] += next[u]
	}
	out := make([]Edge, len(es))
	for _, e := range es {
		out[next[e.U]] = e
		next[e.U]++
	}
	return out, true
}

// Bipartite is an immutable weighted bipartite similarity graph.
type Bipartite struct {
	n1, n2 int
	edges  []Edge
	maxW   float64

	// The matching index, the by-weight permutation and each side's
	// Adjacency, is built lazily on first use (indexOnce): similarity-
	// graph generation produces hundreds of graphs whose only consumers
	// may be checksumming, serialization or the cleaning filter, none of
	// which need it, while the matchers that do pay the build exactly
	// once per (immutable) graph.
	indexOnce  sync.Once
	byWeight   []int32 // edge indices in descending weight order
	adj1, adj2 Adjacency

	// pair is the lazily built constant-time (u,v) -> weight index,
	// shared by every Match call on this graph (graphs are immutable, so
	// it is built at most once).
	pairOnce sync.Once
	pair     *PairLookup
}

// Adjacency is one side's adjacency as flat CSR arrays: node x's
// neighbors are Opp[Off[x]:Off[x+1]], with weights W[Off[x]:Off[x+1]]
// in descending order (ties by ascending neighbor id). Callers must not
// modify it.
type Adjacency struct {
	Off []int32
	Opp []int32
	W   []float64
}

func newBipartite(n1, n2 int, edges []Edge) *Bipartite {
	g := &Bipartite{n1: n1, n2: n2, edges: edges}
	if len(edges) > 0 {
		_, g.maxW = weightRange(edges)
	}
	return g
}

// buildIndex materializes the by-weight permutation and both sides'
// Adjacency; indexOnce runs it at most once per graph.
func (g *Bipartite) buildIndex() {
	edges := g.edges
	g.byWeight = make([]int32, len(edges))
	for i := range g.byWeight {
		g.byWeight[i] = int32(i)
	}
	// The permutation's comparator is (W descending, then U, V
	// ascending). Edge lists from Build and NormalizeMinMax are
	// already (U,V)-ascending, so the identity permutation realizes the
	// tie-break and any STABLE descending-weight sort produces exactly
	// the comparator's order — which lets large graphs use an LSD radix
	// sort over the weight bits instead of an O(E log E) comparison
	// sort with a closure per compare.
	if len(edges) >= radixMinEdges && isSortedUV(edges) {
		radixSortByWeightDesc(edges, g.byWeight)
	} else {
		slices.SortFunc(g.byWeight, func(x, y int32) int {
			ei, ej := edges[x], edges[y]
			switch {
			case ei.W > ej.W:
				return -1
			case ei.W < ej.W:
				return 1
			case ei.U != ej.U:
				return int(ei.U) - int(ej.U)
			default:
				return int(ei.V) - int(ej.V)
			}
		})
	}

	a1, a2 := newAdjacency(g.n1, len(edges)), newAdjacency(g.n2, len(edges))
	for _, e := range edges {
		a1.Off[e.U+1]++
		a2.Off[e.V+1]++
	}
	for i := 0; i < g.n1; i++ {
		a1.Off[i+1] += a1.Off[i]
	}
	for i := 0; i < g.n2; i++ {
		a2.Off[i+1] += a2.Off[i]
	}
	next1 := append([]int32(nil), a1.Off[:g.n1]...)
	next2 := append([]int32(nil), a2.Off[:g.n2]...)
	// Appending in global by-weight order keeps every list in
	// (W descending, neighbor ascending) order.
	for _, ei := range g.byWeight {
		e := edges[ei]
		k := next1[e.U]
		a1.Opp[k], a1.W[k] = e.V, e.W
		next1[e.U]++
		k = next2[e.V]
		a2.Opp[k], a2.W[k] = e.U, e.W
		next2[e.V]++
	}
	g.adj1, g.adj2 = a1, a2
}

func newAdjacency(nodes, edges int) Adjacency {
	return Adjacency{
		Off: make([]int32, nodes+1),
		Opp: make([]int32, edges),
		W:   make([]float64, edges),
	}
}

// radixMinEdges is the edge count above which the by-weight permutation
// uses the radix sort; below it the per-pass histogram overhead loses to
// the comparison sort.
const radixMinEdges = 256

// radixSortByWeightDesc stably sorts idx (the identity permutation over
// edges) by strictly descending edge weight: 8 LSD counting passes over
// a monotone uint64 transform of the weight bits, skipping passes whose
// byte is constant (common: similarity weights share sign and most
// exponent bits). Stability plus (U,V)-ascending input order reproduces
// the full (W desc, U asc, V asc) comparator order bit for bit; -0 is
// mapped onto +0 so the two compare equal, as the comparator says.
func radixSortByWeightDesc(edges []Edge, idx []int32) {
	keys := make([]uint64, len(edges))
	var counts [8][256]int32
	for i, e := range edges {
		w := e.W
		if w == 0 {
			w = 0 // collapses -0 onto +0
		}
		b := math.Float64bits(w)
		if b>>63 != 0 {
			b = ^b
		} else {
			b |= 1 << 63
		}
		k := ^b // ascending key order == descending weight order
		keys[i] = k
		counts[0][k&0xff]++
		counts[1][k>>8&0xff]++
		counts[2][k>>16&0xff]++
		counts[3][k>>24&0xff]++
		counts[4][k>>32&0xff]++
		counts[5][k>>40&0xff]++
		counts[6][k>>48&0xff]++
		counts[7][k>>56&0xff]++
	}
	n := int32(len(edges))
	src, dst := idx, make([]int32, len(idx))
	for p := 0; p < 8; p++ {
		c := &counts[p]
		shift := uint(8 * p)
		constant := false
		sum := int32(0)
		for b := 0; b < 256; b++ {
			if c[b] == n {
				constant = true
				break
			}
			cnt := c[b]
			c[b] = sum
			sum += cnt
		}
		if constant {
			continue // every key shares this byte; the pass is a no-op
		}
		for _, i := range src {
			b := keys[i] >> shift & 0xff
			dst[c[b]] = i
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &idx[0] {
		copy(idx, src)
	}
}

// N1 returns the number of nodes in the first collection.
func (g *Bipartite) N1() int { return g.n1 }

// N2 returns the number of nodes in the second collection.
func (g *Bipartite) N2() int { return g.n2 }

// NumEdges returns the number of edges.
func (g *Bipartite) NumEdges() int { return len(g.edges) }

// Edge returns the edge with index i.
func (g *Bipartite) Edge(i int32) Edge { return g.edges[i] }

// Edges returns the underlying edge slice. Callers must not modify it.
func (g *Bipartite) Edges() []Edge { return g.edges }

// EdgesByWeight returns edge indices in descending weight order (ties
// by ascending U, then V), building the matching index on first use.
// Callers must not modify the returned slice.
func (g *Bipartite) EdgesByWeight() []int32 {
	g.indexOnce.Do(g.buildIndex)
	return g.byWeight
}

// Adjacency returns the V1 and V2 sides' adjacency, building the
// matching index on first use. A matcher fetches it once per call and
// indexes the flat arrays per node.
func (g *Bipartite) Adjacency() (v1, v2 Adjacency) {
	g.indexOnce.Do(g.buildIndex)
	return g.adj1, g.adj2
}

// MaxWeight returns the largest edge weight (0 for an empty graph).
func (g *Bipartite) MaxWeight() float64 { return g.maxW }

// Weight returns the weight of edge (u,v) and whether it exists.
// It scans the shorter of the two adjacency lists.
func (g *Bipartite) Weight(u, v NodeID) (float64, bool) {
	a1, a2 := g.Adjacency()
	a, x, y := a1, u, v
	if a1.Off[u+1]-a1.Off[u] > a2.Off[v+1]-a2.Off[v] {
		a, x, y = a2, v, u
	}
	lo := a.Off[x]
	if k := slices.Index(a.Opp[lo:a.Off[x+1]], y); k >= 0 {
		return a.W[lo+int32(k)], true
	}
	return 0, false
}

// denseLookupEntries caps the n1*n2 product for which PairWeights uses a
// dense weight matrix (8 bytes per cell): above it the lookup falls back
// to a hash map, keeping the resident memory of very large stored graphs
// bounded.
const denseLookupEntries = 1 << 20

// PairLookup is a constant-time (u,v) -> weight index over a graph's
// edges. Small graphs use a dense matrix (a probe is one array load, no
// hashing); large ones fall back to a map.
type PairLookup struct {
	n2    int
	dense []float64 // weight at u*n2+v; nil for the map representation
	m     map[int64]float64
}

// WeightOrZero returns the weight of edge (u,v), or 0 when the edge is
// absent, without reporting existence, for probe loops (like BAH's)
// that treat zero-weight and missing edges identically.
func (l *PairLookup) WeightOrZero(u, v NodeID) float64 {
	if l.dense != nil {
		return l.dense[int(u)*l.n2+int(v)]
	}
	return l.m[pairKey(u, v)]
}

// DenseMatrix exposes the dense weight matrix (row-major over V1, row
// stride N2, absent edges 0) when this lookup is dense-backed, else nil.
// Probe loops hot enough to care index it directly. Callers must not
// modify it.
func (l *PairLookup) DenseMatrix() ([]float64, int) {
	return l.dense, l.n2
}

// PairWeights returns the graph's constant-time pair index, building it
// on first use. The index is cached on the (immutable) graph, so
// repeated Match calls — e.g. a 20-point BAH threshold sweep — share one
// build instead of paying O(|E|) each.
func (g *Bipartite) PairWeights() *PairLookup {
	g.pairOnce.Do(func() {
		l := &PairLookup{n2: g.n2}
		if cells := g.n1 * g.n2; cells > 0 && cells <= denseLookupEntries {
			l.dense = make([]float64, cells)
			for _, e := range g.edges {
				l.dense[int(e.U)*g.n2+int(e.V)] = e.W
			}
		} else {
			l.m = make(map[int64]float64, len(g.edges))
			for _, e := range g.edges {
				l.m[pairKey(e.U, e.V)] = e.W
			}
		}
		g.pair = l
	})
	return g.pair
}

func pairKey(u, v NodeID) int64 { return int64(u)<<32 | int64(uint32(v)) }

// NormalizeMinMax returns a new graph with weights rescaled to [0,1] by
// min-max normalization, as applied to every similarity graph in the
// paper's experimental setup (Section 5). If all weights are equal, they
// all become 1.
func (g *Bipartite) NormalizeMinMax() *Bipartite {
	edges := slices.Clone(g.edges)
	rescaleMinMax(edges)
	return newBipartite(g.n1, g.n2, edges)
}

// Density returns |E| / (|V1|*|V2|), the normalized graph size used by the
// paper's threshold analysis (Table 8).
func (g *Bipartite) Density() float64 {
	if g.n1 == 0 || g.n2 == 0 {
		return 0
	}
	return float64(len(g.edges)) / (float64(g.n1) * float64(g.n2))
}

// Validate checks structural invariants and returns nil on a
// well-formed graph: every weight is finite, no edge is duplicated,
// and each side's adjacency lists hold exactly the edges, with
// bit-identical weights, in (weight descending, neighbor ascending)
// order. It is test support: the property tests and fuzz targets of
// this package and internal/simgraph's tests call it.
func (g *Bipartite) Validate() error {
	weights := make(map[int64]float64, len(g.edges))
	for _, e := range g.edges {
		if math.IsNaN(e.W) || math.IsInf(e.W, 0) {
			return fmt.Errorf("graph: non-finite weight %v for edge (%d,%d)", e.W, e.U, e.V)
		}
		k := pairKey(e.U, e.V)
		if _, dup := weights[k]; dup {
			return fmt.Errorf("graph: duplicate edge (%d,%d)", e.U, e.V)
		}
		weights[k] = e.W
	}
	a1, a2 := g.Adjacency()
	if err := validateSide(a1, g.n1, false, weights); err != nil {
		return err
	}
	return validateSide(a2, g.n2, true, weights)
}

// validateSide checks one side's adjacency a over its n nodes (the V2
// side if v2) against the edge weights by pair key. Every list entry
// must be an edge of its node with the edge's weight bits, and the
// lists must hold as many entries as there are edges; strict order
// within a list rules out a repeated entry, so together they hold each
// edge exactly once. It is Validate's per-side half, test support like
// Validate.
func validateSide(a Adjacency, n int, v2 bool, weights map[int64]float64) error {
	side := "V1"
	if v2 {
		side = "V2"
	}
	m := int32(len(weights))
	if len(a.Off) != n+1 || a.Off[0] != 0 || a.Off[n] != m || len(a.Opp) != int(m) || len(a.W) != int(m) {
		return fmt.Errorf("graph: %s adjacency size mismatch", side)
	}
	for x := int32(0); x < int32(n); x++ {
		lo, hi := a.Off[x], a.Off[x+1]
		if lo > hi {
			return fmt.Errorf("graph: %s offsets decrease at node %d", side, x)
		}
		for k := lo; k < hi; k++ {
			u, v := x, a.Opp[k]
			if v2 {
				u, v = v, u
			}
			w, ok := weights[pairKey(u, v)]
			if !ok {
				return fmt.Errorf("graph: %s list of node %d holds %d, not an edge", side, x, a.Opp[k])
			}
			if math.Float64bits(w) != math.Float64bits(a.W[k]) {
				return fmt.Errorf("graph: %s list of node %d has weight %v for %d, edge has %v", side, x, a.W[k], a.Opp[k], w)
			}
			if k > lo && !(a.W[k-1] > a.W[k] || a.W[k-1] == a.W[k] && a.Opp[k-1] < a.Opp[k]) {
				return fmt.Errorf("graph: %s list of node %d not in (weight descending, neighbor ascending) order", side, x)
			}
		}
	}
	return nil
}
