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
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/ccer-go/ccer/internal/par"
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
// candidate pairs. It takes ownership of the accumulated edges and lets
// them go once the graph's rows are laid out; the builder must not be
// reused.
func (b *Builder) Build() (*Bipartite, error) {
	if b.err != nil {
		return nil, b.err
	}
	edges := dedupeMax(b.edges, b.n1)
	b.edges = nil
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
	b.edges = nil
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

// Bipartite is an immutable weighted bipartite similarity graph. It
// holds its edges once, as the V1 side's rows (see Adjacency): node u's
// neighbors and weights in (weight descending, neighbor ascending)
// order. Every other view is derived from the rows: the V2 side's rows
// on first use, and the (U,V)-ordered and by-weight edge lists afresh
// on each call.
type Bipartite struct {
	n1, n2 int
	maxW   float64
	adj1   Adjacency // the V1 rows, laid out at construction

	// The V2 side is built lazily on the first Adjacency call (v2Once):
	// similarity-graph generation produces hundreds of graphs whose only
	// consumers may be checksumming, serialization or the cleaning
	// filter, none of which need it, while the matchers that do pay the
	// build exactly once per (immutable) graph. It is published through
	// an atomic pointer so ResidentBytes can read it while a build runs.
	v2Once sync.Once
	adj2   atomic.Pointer[Adjacency]

	// pair is the lazily built constant-time (u,v) -> weight index,
	// shared by every Match call on this graph (graphs are immutable, so
	// it is built at most once).
	pairOnce sync.Once
	pair     atomic.Pointer[PairLookup]
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

// bytes is the adjacency's size: 12 bytes an entry plus 4 an offset.
func (a Adjacency) bytes() int64 {
	return 4*int64(len(a.Off)) + 4*int64(len(a.Opp)) + 8*int64(len(a.W))
}

// newBipartite lays out the V1 rows of a (U,V)-ascending edge list
// without duplicate pairs, the order Build, BuildNormalized and
// NormalizeMinMax hand it. The list does not outlive the call.
func newBipartite(n1, n2 int, edges []Edge) *Bipartite {
	g := &Bipartite{n1: n1, n2: n2}
	if len(edges) > 0 {
		_, g.maxW = weightRange(edges)
	}
	// Each row is a run of the list, neighbors ascending, so a stable
	// sort of each run by descending weight leaves every row in (weight
	// descending, neighbor ascending) order.
	a := newAdjacency(n1, len(edges))
	for k, e := range edges {
		a.Off[e.U+1]++
		a.Opp[k], a.W[k] = e.V, e.W
	}
	for u := 0; u < n1; u++ {
		a.Off[u+1] += a.Off[u]
	}
	sortRows(a)
	g.adj1 = a
	return g
}

// buildV2 lays out the V2 side's rows from the V1 rows; v2Once runs it
// at most once per graph.
func (g *Bipartite) buildV2() {
	a1 := g.adj1
	a2 := newAdjacency(g.n2, len(a1.Opp))
	for _, v := range a1.Opp {
		a2.Off[v+1]++
	}
	for v := 0; v < g.n2; v++ {
		a2.Off[v+1] += a2.Off[v]
	}
	// Placing the V1 rows in ascending U leaves each V2 row's neighbors
	// ascending, so sortRows can order it as newBipartite orders V1.
	next := slices.Clone(a2.Off[:g.n2])
	for u := 0; u < g.n1; u++ {
		for k := a1.Off[u]; k < a1.Off[u+1]; k++ {
			v := a1.Opp[k]
			a2.Opp[next[v]], a2.W[next[v]] = int32(u), a1.W[k]
			next[v]++
		}
	}
	sortRows(a2)
	g.adj2.Store(&a2)
}

func newAdjacency(nodes, edges int) Adjacency {
	return Adjacency{
		Off: make([]int32, nodes+1),
		Opp: make([]int32, edges),
		W:   make([]float64, edges),
	}
}

// parallelRowsMin is the entry count from which sortRows fans its rows
// out over every CPU: a graph that large takes milliseconds to sort,
// and graph assembly otherwise runs on one core.
const parallelRowsMin = 1 << 16

// rowBlock is the number of rows a sortRows worker takes at a time.
const rowBlock = 64

// sortRows sorts each row of a whose neighbors ascend by descending
// weight, stably, into (weight descending, neighbor ascending) order.
func sortRows(a Adjacency) {
	rows := len(a.Off) - 1
	workers := 1
	if len(a.Opp) >= parallelRowsMin {
		workers = par.Workers(0)
	}
	sorters := make([]rowSorter, workers)
	par.For((rows+rowBlock-1)/rowBlock, workers, nil, func(w, blk int) {
		s := &sorters[w]
		for x := blk * rowBlock; x < min(rows, (blk+1)*rowBlock); x++ {
			s.sortRow(a, a.Off[x], a.Off[x+1])
		}
	})
}

// rowSorter sorts rows through buffers it reuses from row to row.
type rowSorter struct {
	weightSorter
	opp []int32
	w   []float64
}

// sortRow sorts the row a.Opp[lo:hi], a.W[lo:hi] as sortRows does.
func (s *rowSorter) sortRow(a Adjacency, lo, hi int32) {
	if hi-lo < 2 {
		return
	}
	order := s.byWeightDesc(a.W[lo:hi])
	s.opp = append(s.opp[:0], a.Opp[lo:hi]...)
	s.w = append(s.w[:0], a.W[lo:hi]...)
	for i, j := range order {
		a.Opp[lo+int32(i)], a.W[lo+int32(i)] = s.opp[j], s.w[j]
	}
}

// weightSorter computes stable descending-weight orders, reusing its
// buffers from call to call.
type weightSorter struct {
	keys, tmpKeys []uint64
	idx, tmpIdx   []int32
}

// insertionMax is the length below which byWeightDesc sorts by
// insertion; above it the radix sort's histograms pay for themselves.
const insertionMax = 32

// byWeightDesc returns the permutation of 0..len(w)-1 that stably
// sorts w by descending weight, -0 and +0 equal: the order's ties keep
// the order of w. The result is valid until the next call.
func (s *weightSorter) byWeightDesc(w []float64) []int32 {
	n := len(w)
	if cap(s.keys) < n {
		s.keys, s.tmpKeys = make([]uint64, n), make([]uint64, n)
		s.idx, s.tmpIdx = make([]int32, n), make([]int32, n)
	}
	keys, idx := s.keys[:n], s.idx[:n]
	for i, x := range w {
		keys[i], idx[i] = descKey(x), int32(i)
	}
	if n < insertionMax {
		for i := 1; i < n; i++ {
			k, x := keys[i], idx[i]
			j := i
			for ; j > 0 && keys[j-1] > k; j-- {
				keys[j], idx[j] = keys[j-1], idx[j-1]
			}
			keys[j], idx[j] = k, x
		}
		return idx
	}
	return radixSort(keys, s.tmpKeys[:n], idx, s.tmpIdx[:n])
}

// descKey maps a weight onto a uint64 whose ascending order is the
// weights' descending order, with -0 and +0 on one key.
func descKey(w float64) uint64 {
	if w == 0 {
		w = 0 // collapses -0 onto +0
	}
	b := math.Float64bits(w)
	if b>>63 != 0 {
		b = ^b
	} else {
		b |= 1 << 63
	}
	return ^b
}

// radixSort stably sorts keys ascending, moving idx along with them,
// and returns the sorted idx, which is idx or tmpIdx. It makes 8 LSD
// counting passes, one a byte, over keys and the same-length scratch
// tmpKeys, skipping the passes whose byte every key shares (common:
// similarity weights share sign and most exponent bits).
func radixSort(keys, tmpKeys []uint64, idx, tmpIdx []int32) []int32 {
	var counts [8][256]int32
	for _, k := range keys {
		counts[0][k&0xff]++
		counts[1][k>>8&0xff]++
		counts[2][k>>16&0xff]++
		counts[3][k>>24&0xff]++
		counts[4][k>>32&0xff]++
		counts[5][k>>40&0xff]++
		counts[6][k>>48&0xff]++
		counts[7][k>>56]++
	}
	n := int32(len(keys))
	for p := range counts {
		c := &counts[p]
		shift := uint(8 * p)
		if c[keys[0]>>shift&0xff] == n {
			continue // every key shares this byte; the pass is a no-op
		}
		sum := int32(0)
		for b, cnt := range c {
			c[b] = sum
			sum += cnt
		}
		for j, k := range keys {
			d := c[k>>shift&0xff]
			tmpKeys[d], tmpIdx[d] = k, idx[j]
			c[k>>shift&0xff]++
		}
		keys, tmpKeys = tmpKeys, keys
		idx, tmpIdx = tmpIdx, idx
	}
	return idx
}

// rowsUV calls fn with each V1 row's edges by ascending V, rows by
// ascending U: the canonical (U,V) order of the edge-list codec. The
// row is scratch reused from call to call, so fn must not keep it. A
// row holding at least a sixteenth of V2 is put in order by marking its
// neighbors in a table of n2 slots and scanning the table; a sparser
// one is sorted.
func (g *Bipartite) rowsUV(fn func(row []Edge) error) error {
	a := g.adj1
	var row []Edge
	var slot []int32 // slot[v]: 1 + v's index in the row being ordered, else 0
	for u := int32(0); int(u) < g.n1; u++ {
		lo, hi := a.Off[u], a.Off[u+1]
		if lo == hi {
			continue
		}
		row = row[:0]
		if 16*int(hi-lo) >= g.n2 {
			if slot == nil {
				slot = make([]int32, g.n2)
			}
			for k := lo; k < hi; k++ {
				slot[a.Opp[k]] = k - lo + 1
			}
			for v, s := range slot {
				if s != 0 {
					row = append(row, Edge{U: u, V: int32(v), W: a.W[lo+s-1]})
					slot[v] = 0
				}
			}
		} else {
			for k := lo; k < hi; k++ {
				row = append(row, Edge{U: u, V: a.Opp[k], W: a.W[k]})
			}
			slices.SortFunc(row, func(x, y Edge) int { return cmp.Compare(x.V, y.V) })
		}
		if err := fn(row); err != nil {
			return err
		}
	}
	return nil
}

// N1 returns the number of nodes in the first collection.
func (g *Bipartite) N1() int { return g.n1 }

// N2 returns the number of nodes in the second collection.
func (g *Bipartite) N2() int { return g.n2 }

// NumEdges returns the number of edges.
func (g *Bipartite) NumEdges() int { return len(g.adj1.Opp) }

// Edges returns a fresh list of the edges in (U,V)-ascending order, the
// order of the edge-list codec.
func (g *Bipartite) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	_ = g.rowsUV(func(row []Edge) error {
		out = append(out, row...)
		return nil
	})
	return out
}

// EdgesByWeight returns a fresh list of the edges in descending weight
// order, ties by ascending U, then V.
func (g *Bipartite) EdgesByWeight() []Edge {
	a := g.adj1
	// The rows' positions run by ascending U and, within a row, equal
	// weights by ascending V: a stable order of them by descending
	// weight breaks ties by (U, V).
	row := make([]int32, len(a.Opp))
	for u := 0; u < g.n1; u++ {
		for k := a.Off[u]; k < a.Off[u+1]; k++ {
			row[k] = int32(u)
		}
	}
	var s weightSorter
	out := make([]Edge, len(a.W))
	for i, k := range s.byWeightDesc(a.W) {
		out[i] = Edge{U: row[k], V: a.Opp[k], W: a.W[k]}
	}
	return out
}

// Rows returns the V1 side's adjacency: the graph's edges as it holds
// them, without building the V2 side. Callers must not modify it.
func (g *Bipartite) Rows() Adjacency { return g.adj1 }

// Adjacency returns the V1 and V2 sides' adjacency, building the V2
// side on first use. A matcher fetches it once per call and indexes the
// flat arrays per node.
func (g *Bipartite) Adjacency() (v1, v2 Adjacency) {
	g.v2Once.Do(g.buildV2)
	return g.adj1, *g.adj2.Load()
}

// MaxWeight returns the largest edge weight (0 for an empty graph).
func (g *Bipartite) MaxWeight() float64 { return g.maxW }

// Weight returns the weight of edge (u,v) and whether it exists,
// scanning u's row.
func (g *Bipartite) Weight(u, v NodeID) (float64, bool) {
	a := g.adj1
	lo := a.Off[u]
	if k := slices.Index(a.Opp[lo:a.Off[u+1]], v); k >= 0 {
		return a.W[lo+int32(k)], true
	}
	return 0, false
}

// Resident is a graph's resident memory by component, in bytes.
type Resident struct {
	V1          int64 // the V1 rows: 12 bytes an edge plus 4(n1+1)
	V2          int64 // the V2 rows once built: 12 bytes an edge plus 4(n2+1)
	PairWeights int64 // the pair lookup once built: 8 bytes a cell, or 16 an entry of its map
}

// ResidentBytes reports the graph's resident memory by component, read
// from slice and map lengths only, so it is cheap enough for a metrics
// scrape and safe beside a running build. A map-backed pair lookup
// counts its keys and values, not the map's own table.
func (g *Bipartite) ResidentBytes() Resident {
	r := Resident{V1: g.adj1.bytes()}
	if a2 := g.adj2.Load(); a2 != nil {
		r.V2 = a2.bytes()
	}
	if l := g.pair.Load(); l != nil {
		r.PairWeights = 8*int64(len(l.dense)) + 16*int64(len(l.m))
	}
	return r
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
		a := g.adj1
		l := &PairLookup{n2: g.n2}
		if cells := g.n1 * g.n2; cells > 0 && cells <= denseLookupEntries {
			l.dense = make([]float64, cells)
			for u := 0; u < g.n1; u++ {
				row := l.dense[u*g.n2 : (u+1)*g.n2]
				for k := a.Off[u]; k < a.Off[u+1]; k++ {
					row[a.Opp[k]] = a.W[k]
				}
			}
		} else {
			l.m = make(map[int64]float64, len(a.Opp))
			for u := int32(0); int(u) < g.n1; u++ {
				for k := a.Off[u]; k < a.Off[u+1]; k++ {
					l.m[pairKey(u, a.Opp[k])] = a.W[k]
				}
			}
		}
		g.pair.Store(l)
	})
	return g.pair.Load()
}

func pairKey(u, v NodeID) int64 { return int64(u)<<32 | int64(uint32(v)) }

// NormalizeMinMax returns a new graph with weights rescaled to [0,1] by
// min-max normalization, as applied to every similarity graph in the
// paper's experimental setup (Section 5). If all weights are equal, they
// all become 1.
func (g *Bipartite) NormalizeMinMax() *Bipartite {
	edges := g.Edges()
	rescaleMinMax(edges)
	return newBipartite(g.n1, g.n2, edges)
}

// Density returns |E| / (|V1|*|V2|), the normalized graph size used by the
// paper's threshold analysis (Table 8).
func (g *Bipartite) Density() float64 {
	if g.n1 == 0 || g.n2 == 0 {
		return 0
	}
	return float64(g.NumEdges()) / (float64(g.n1) * float64(g.n2))
}

// Validate checks structural invariants and returns nil on a
// well-formed graph: the V1 rows are laid out over n1 nodes, every
// neighbor is a V2 node, every weight is finite, no edge is duplicated,
// and each side's adjacency lists hold exactly the edges, with
// bit-identical weights, in (weight descending, neighbor ascending)
// order. It is test support: the property tests and fuzz targets of
// this package and internal/simgraph's tests call it.
func (g *Bipartite) Validate() error {
	a1 := g.adj1
	m := len(a1.Opp)
	if len(a1.Off) != g.n1+1 || a1.Off[0] != 0 || int(a1.Off[g.n1]) != m || len(a1.W) != m {
		return fmt.Errorf("graph: V1 adjacency size mismatch")
	}
	weights := make(map[int64]float64, m)
	for u := int32(0); int(u) < g.n1; u++ {
		lo, hi := a1.Off[u], a1.Off[u+1]
		if lo > hi {
			return fmt.Errorf("graph: V1 offsets decrease at node %d", u)
		}
		for k := lo; k < hi; k++ {
			v, w := a1.Opp[k], a1.W[k]
			if v < 0 || int(v) >= g.n2 {
				return fmt.Errorf("graph: node %d out of range for V2 of size %d", v, g.n2)
			}
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("graph: non-finite weight %v for edge (%d,%d)", w, u, v)
			}
			key := pairKey(u, v)
			if _, dup := weights[key]; dup {
				return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
			}
			weights[key] = w
		}
	}
	if err := validateSide(a1, g.n1, false, weights); err != nil {
		return err
	}
	_, a2 := g.Adjacency()
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
