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
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
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
	if n1 < 0 || n2 < 0 {
		b.err = fmt.Errorf("graph: negative side size (%d, %d)", n1, n2)
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

// Grow extends the node ranges so that u fits in V1 and v fits in V2.
// It is a convenience for callers that discover node counts while streaming
// edges.
func (b *Builder) Grow(u, v NodeID) {
	if int(u) >= b.n1 {
		b.n1 = int(u) + 1
	}
	if int(v) >= b.n2 {
		b.n2 = int(v) + 1
	}
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

// MustBuild is Build that panics on error, for tests and literals.
func (b *Builder) MustBuild() *Bipartite {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// BuildNormalized is Build followed by NormalizeMinMax, fused: the
// min-max rescale is applied to the deduplicated edge list BEFORE the
// graph is assembled, so the CSR adjacency and the by-weight permutation
// are computed once instead of built, verified and rebuilt. The result
// is bit-identical to Build().NormalizeMinMax(): the rescale maps each
// weight through the same expression, and the by-weight comparator
// (W descending, U, V ascending) is total, so whichever route computes
// the permutation arrives at the same order. Like Build, it takes
// ownership of the accumulated edges; the builder must not be reused.
func (b *Builder) BuildNormalized() (*Bipartite, error) {
	if b.err != nil {
		return nil, b.err
	}
	edges := dedupeMax(b.edges, b.n1)
	minW, maxW := math.Inf(1), math.Inf(-1)
	for _, e := range edges {
		if e.W < minW {
			minW = e.W
		}
		if e.W > maxW {
			maxW = e.W
		}
	}
	span := maxW - minW
	for i := range edges {
		w := 1.0
		if span > 0 {
			w = (edges[i].W - minW) / span
		}
		edges[i].W = w
	}
	return newBipartite(b.n1, b.n2, edges), nil
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

	// The matching indexes — the by-weight permutation and the CSR
	// adjacency — are built lazily on first use (indexOnce): similarity-
	// graph generation produces hundreds of graphs whose only consumers
	// may be checksumming, serialization or the cleaning filter, none of
	// which need them, while the matchers that do pay the build exactly
	// once per (immutable) graph. indexBuilt flips after the arrays are
	// fully written, so lock-free observers (indexed) never see a
	// half-visible index.
	indexOnce  sync.Once
	indexBuilt atomic.Bool

	// CSR adjacency. adj1[off1[u]:off1[u+1]] are indices into edges for
	// node u of V1, sorted by descending weight (ties broken by opposite
	// node id, ascending, for determinism). Same for the V2 side.
	off1, off2 []int32
	adj1, adj2 []int32

	// byWeight is the edge index permutation in descending weight order.
	byWeight []int32

	minW, maxW float64

	// pair is the lazily built constant-time (u,v) -> weight index,
	// shared by every Match call on this graph (graphs are immutable, so
	// it is built at most once).
	pairOnce sync.Once
	pair     *PairLookup

	// Adjacency-ordered weight / opposite-node arrays (aligned with
	// adj1/adj2), lazily built once and shared by the matchers' repeated
	// threshold-prefix scans: a 20-point sweep walks each adjacency list
	// dozens of times, and the contiguous layout replaces a random edge
	// lookup per visit.
	adjCacheOnce     sync.Once
	adjW1, adjW2     []float64
	adjOpp1, adjOpp2 []int32
}

func newBipartite(n1, n2 int, edges []Edge) *Bipartite {
	g := &Bipartite{n1: n1, n2: n2, edges: edges}
	g.minW, g.maxW = math.Inf(1), math.Inf(-1)
	for _, e := range edges {
		if e.W < g.minW {
			g.minW = e.W
		}
		if e.W > g.maxW {
			g.maxW = e.W
		}
	}
	if len(edges) == 0 {
		g.minW, g.maxW = 0, 0
	}
	return g
}

// ensureIndex materializes the by-weight permutation and the CSR
// adjacency, at most once per graph.
func (g *Bipartite) ensureIndex() {
	g.indexOnce.Do(g.buildIndex)
}

// setIndex installs prebuilt index arrays (the NormalizeMinMax reuse
// path), consuming the once so they are never rebuilt.
func (g *Bipartite) setIndex(off1, off2, adj1, adj2, byWeight []int32) {
	g.indexOnce.Do(func() {
		g.off1, g.off2 = off1, off2
		g.adj1, g.adj2 = adj1, adj2
		g.byWeight = byWeight
		g.indexBuilt.Store(true)
	})
}

func (g *Bipartite) buildIndex() {
	edges := g.edges
	n1, n2 := g.n1, g.n2
	g.byWeight = make([]int32, len(edges))
	for i := range g.byWeight {
		g.byWeight[i] = int32(i)
	}
	// The permutation's comparator is (W descending, then U, V
	// ascending). Edge lists from Build/Threshold/NormalizeMinMax are
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

	g.off1 = make([]int32, n1+1)
	g.off2 = make([]int32, n2+1)
	for _, e := range edges {
		g.off1[e.U+1]++
		g.off2[e.V+1]++
	}
	for i := 0; i < n1; i++ {
		g.off1[i+1] += g.off1[i]
	}
	for i := 0; i < n2; i++ {
		g.off2[i+1] += g.off2[i]
	}
	g.adj1 = make([]int32, len(edges))
	g.adj2 = make([]int32, len(edges))
	next1 := append([]int32(nil), g.off1[:n1]...)
	next2 := append([]int32(nil), g.off2[:n2]...)
	// Appending in global descending-weight order keeps every per-node
	// adjacency list sorted by descending weight.
	for _, ei := range g.byWeight {
		e := edges[ei]
		g.adj1[next1[e.U]] = ei
		next1[e.U]++
		g.adj2[next2[e.V]] = ei
		next2[e.V]++
	}
	g.indexBuilt.Store(true)
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

// NumNodes returns |V1|+|V2|.
func (g *Bipartite) NumNodes() int { return g.n1 + g.n2 }

// NumEdges returns the number of edges.
func (g *Bipartite) NumEdges() int { return len(g.edges) }

// Edge returns the edge with index i.
func (g *Bipartite) Edge(i int32) Edge { return g.edges[i] }

// Edges returns the underlying edge slice. Callers must not modify it.
func (g *Bipartite) Edges() []Edge { return g.edges }

// EdgesByWeight returns edge indices in descending weight order,
// building the index on first use. Callers must not modify the
// returned slice.
func (g *Bipartite) EdgesByWeight() []int32 {
	g.ensureIndex()
	return g.byWeight
}

// buildAdjCache materializes the adjacency-ordered weight and
// opposite-node arrays.
func (g *Bipartite) buildAdjCache() {
	g.ensureIndex()
	g.adjCacheOnce.Do(func() {
		g.adjW1 = make([]float64, len(g.adj1))
		g.adjOpp1 = make([]int32, len(g.adj1))
		for k, ei := range g.adj1 {
			g.adjW1[k] = g.edges[ei].W
			g.adjOpp1[k] = g.edges[ei].V
		}
		g.adjW2 = make([]float64, len(g.adj2))
		g.adjOpp2 = make([]int32, len(g.adj2))
		for k, ei := range g.adj2 {
			g.adjW2[k] = g.edges[ei].W
			g.adjOpp2[k] = g.edges[ei].U
		}
	})
}

// AdjList1 returns node u of V1's neighbors and edge weights in
// descending weight order (the Adj1 ordering), as two aligned
// contiguous slices. Built once per graph; callers must not modify
// them.
func (g *Bipartite) AdjList1(u NodeID) (opp []int32, ws []float64) {
	g.buildAdjCache()
	return g.adjOpp1[g.off1[u]:g.off1[u+1]], g.adjW1[g.off1[u]:g.off1[u+1]]
}

// AdjList2 is AdjList1 for the V2 side.
func (g *Bipartite) AdjList2(v NodeID) (opp []int32, ws []float64) {
	g.buildAdjCache()
	return g.adjOpp2[g.off2[v]:g.off2[v+1]], g.adjW2[g.off2[v]:g.off2[v+1]]
}

// Adjacency is one side's cached adjacency as flat CSR arrays, the
// ones AdjList1 and AdjList2 slice: node x's neighbors are
// Opp[Off[x]:Off[x+1]], with weights W[Off[x]:Off[x+1]] in descending
// order (ties by ascending neighbor id). Callers must not modify it.
type Adjacency struct {
	Off []int32
	Opp []int32
	W   []float64
}

// Adjacency returns the V1 and V2 sides' cached adjacency, built once
// per graph. A matcher that visits many nodes fetches it once per call
// instead of paying AdjList1's build checks per node.
func (g *Bipartite) Adjacency() (v1, v2 Adjacency) {
	g.buildAdjCache()
	return Adjacency{g.off1, g.adjOpp1, g.adjW1}, Adjacency{g.off2, g.adjOpp2, g.adjW2}
}

// Adj1 returns the edge indices incident to node u of V1 in descending
// weight order. Callers must not modify the returned slice.
func (g *Bipartite) Adj1(u NodeID) []int32 {
	g.ensureIndex()
	return g.adj1[g.off1[u]:g.off1[u+1]]
}

// Adj2 returns the edge indices incident to node v of V2 in descending
// weight order. Callers must not modify the returned slice.
func (g *Bipartite) Adj2(v NodeID) []int32 {
	g.ensureIndex()
	return g.adj2[g.off2[v]:g.off2[v+1]]
}

// Degree1 returns the degree of node u of V1.
func (g *Bipartite) Degree1(u NodeID) int {
	g.ensureIndex()
	return int(g.off1[u+1] - g.off1[u])
}

// Degree2 returns the degree of node v of V2.
func (g *Bipartite) Degree2(v NodeID) int {
	g.ensureIndex()
	return int(g.off2[v+1] - g.off2[v])
}

// MinWeight returns the smallest edge weight (0 for an empty graph).
func (g *Bipartite) MinWeight() float64 { return g.minW }

// MaxWeight returns the largest edge weight (0 for an empty graph).
func (g *Bipartite) MaxWeight() float64 { return g.maxW }

// Weight returns the weight of edge (u,v) and whether it exists.
// It scans the shorter of the two adjacency lists.
func (g *Bipartite) Weight(u, v NodeID) (float64, bool) {
	if g.Degree1(u) <= g.Degree2(v) {
		for _, ei := range g.Adj1(u) {
			if g.edges[ei].V == v {
				return g.edges[ei].W, true
			}
		}
		return 0, false
	}
	for _, ei := range g.Adj2(v) {
		if g.edges[ei].U == u {
			return g.edges[ei].W, true
		}
	}
	return 0, false
}

// denseLookupEntries caps the n1*n2 product for which PairWeights uses a
// dense weight matrix (8 bytes per cell plus one existence bit): above it
// the lookup falls back to a hash map, keeping the resident memory of
// very large stored graphs bounded.
const denseLookupEntries = 1 << 20

// PairLookup is a constant-time (u,v) -> weight index over a graph's
// edges. Small graphs use a dense matrix with an existence bitset (a
// probe is two array loads, no hashing); large ones fall back to a map.
type PairLookup struct {
	n2    int
	dense []float64 // weight at u*n2+v; nil for the map representation
	bits  []uint64  // edge-existence bitset for dense
	m     map[int64]float64
}

// Weight reports the weight of edge (u,v) and whether it exists.
func (l *PairLookup) Weight(u, v NodeID) (float64, bool) {
	if l.dense != nil {
		idx := int(u)*l.n2 + int(v)
		if l.bits[idx>>6]&(1<<(uint(idx)&63)) == 0 {
			return 0, false
		}
		return l.dense[idx], true
	}
	w, ok := l.m[pairKey(u, v)]
	return w, ok
}

// WeightOrZero returns the weight of edge (u,v), or 0 when the edge is
// absent, without reporting existence — the single-load fast path for
// probe loops (like BAH's) that already treat zero-weight and missing
// edges identically.
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
			l.bits = make([]uint64, (cells+63)/64)
			for _, e := range g.edges {
				idx := int(e.U)*g.n2 + int(e.V)
				l.dense[idx] = e.W
				l.bits[idx>>6] |= 1 << (uint(idx) & 63)
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

// WeightLookup returns a constant-time weight lookup table for graphs
// where repeated random-pair probes are needed. The backing index is
// built once per graph and shared across calls. It is the functional
// convenience form of PairWeights, which hot loops (like BAH's) use
// directly to avoid the closure call.
func (g *Bipartite) WeightLookup() WeightFunc {
	return g.PairWeights().Weight
}

// WeightFunc reports the weight of a (u,v) pair and whether the edge exists.
type WeightFunc func(u, v NodeID) (float64, bool)

func pairKey(u, v NodeID) int64 { return int64(u)<<32 | int64(uint32(v)) }

// Threshold returns a new graph that keeps only the edges with weight
// strictly greater than t, matching the pruning step "e.sim > t" used by
// the paper's algorithm listings. Node counts are preserved.
func (g *Bipartite) Threshold(t float64) *Bipartite {
	kept := make([]Edge, 0, len(g.edges))
	for _, e := range g.edges {
		if e.W > t {
			kept = append(kept, e)
		}
	}
	return newBipartite(g.n1, g.n2, kept)
}

// NormalizeMinMax returns a new graph with weights rescaled to [0,1] by
// min-max normalization, as applied to every similarity graph in the
// paper's experimental setup (Section 5). If all weights are equal, they
// all become 1.
//
// The rescaling is strictly monotonic, so the descending-weight
// permutation (and with it the CSR adjacency) carries over from g
// unchanged and the rebuild sort is skipped. Rounding can collapse two
// distinct weights onto the same normalized value, which would make the
// inherited permutation disagree with a from-scratch sort on its
// (U,V) tie-break; the exact comparator is therefore re-verified over
// the transformed weights, falling back to a full rebuild on the first
// violation.
func (g *Bipartite) NormalizeMinMax() *Bipartite {
	edges := make([]Edge, len(g.edges))
	span := g.maxW - g.minW
	for i, e := range g.edges {
		w := 1.0
		if span > 0 {
			w = (e.W - g.minW) / span
		}
		edges[i] = Edge{U: e.U, V: e.V, W: w}
	}
	if g.indexed() {
		// The source graph's index is already built: verify it orders
		// the transformed weights exactly as the comparator would and
		// inherit it; rebuild from scratch on the first violation.
		if !sortedByWeight(edges, g.byWeight) {
			return newBipartite(g.n1, g.n2, edges)
		}
		out := newBipartite(g.n1, g.n2, edges)
		out.setIndex(g.off1, g.off2, g.adj1, g.adj2, g.byWeight)
		return out
	}
	return newBipartite(g.n1, g.n2, edges)
}

// indexed reports whether the matching indexes have been materialized,
// without building them. The atomic flag is stored only after every
// index array is fully written, so a true here (followed by the
// release/acquire pair of the atomic) guarantees the arrays are safe to
// read even when another goroutine raced the build.
func (g *Bipartite) indexed() bool { return g.indexBuilt.Load() }

// sortedByWeight reports whether perm orders edges exactly as
// newBipartite's byWeight comparator would: descending weight with
// (U,V)-ascending tie-breaks.
func sortedByWeight(edges []Edge, perm []int32) bool {
	for k := 1; k < len(perm); k++ {
		prev, cur := edges[perm[k-1]], edges[perm[k]]
		switch {
		case prev.W > cur.W:
		case prev.W < cur.W:
			return false
		case prev.U < cur.U:
		case prev.U > cur.U:
			return false
		default:
			if prev.V >= cur.V {
				return false
			}
		}
	}
	return true
}

// AvgAdjWeight1 returns the average weight of edges incident to node u of
// V1, or 0 if u is isolated. RSR seeds nodes in this order.
func (g *Bipartite) AvgAdjWeight1(u NodeID) float64 {
	return avgWeight(g.edges, g.Adj1(u))
}

// AvgAdjWeight2 is AvgAdjWeight1 for the V2 side.
func (g *Bipartite) AvgAdjWeight2(v NodeID) float64 {
	return avgWeight(g.edges, g.Adj2(v))
}

func avgWeight(edges []Edge, adj []int32) float64 {
	if len(adj) == 0 {
		return 0
	}
	s := 0.0
	for _, ei := range adj {
		s += edges[ei].W
	}
	return s / float64(len(adj))
}

// TotalWeight returns the sum of all edge weights.
func (g *Bipartite) TotalWeight() float64 {
	s := 0.0
	for _, e := range g.edges {
		s += e.W
	}
	return s
}

// Density returns |E| / (|V1|*|V2|), the normalized graph size used by the
// paper's threshold analysis (Table 8).
func (g *Bipartite) Density() float64 {
	if g.n1 == 0 || g.n2 == 0 {
		return 0
	}
	return float64(len(g.edges)) / (float64(g.n1) * float64(g.n2))
}

// Validate checks structural invariants. It is used by property tests and
// returns nil on a well-formed graph.
func (g *Bipartite) Validate() error {
	g.ensureIndex()
	if len(g.adj1) != len(g.edges) || len(g.adj2) != len(g.edges) {
		return errors.New("graph: adjacency size mismatch")
	}
	for u := 0; u < g.n1; u++ {
		adj := g.Adj1(NodeID(u))
		for i, ei := range adj {
			e := g.edges[ei]
			if e.U != NodeID(u) {
				return fmt.Errorf("graph: adj1[%d] points at edge of node %d", u, e.U)
			}
			if i > 0 && g.edges[adj[i-1]].W < e.W {
				return fmt.Errorf("graph: adj1[%d] not sorted by descending weight", u)
			}
		}
	}
	for v := 0; v < g.n2; v++ {
		adj := g.Adj2(NodeID(v))
		for i, ei := range adj {
			e := g.edges[ei]
			if e.V != NodeID(v) {
				return fmt.Errorf("graph: adj2[%d] points at edge of node %d", v, e.V)
			}
			if i > 0 && g.edges[adj[i-1]].W < e.W {
				return fmt.Errorf("graph: adj2[%d] not sorted by descending weight", v)
			}
		}
	}
	seen := make(map[int64]bool, len(g.edges))
	for _, e := range g.edges {
		k := pairKey(e.U, e.V)
		if seen[k] {
			return fmt.Errorf("graph: duplicate edge (%d,%d)", e.U, e.V)
		}
		seen[k] = true
	}
	return nil
}
