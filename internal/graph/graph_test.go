package graph

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func mustGraph(t *testing.T, n1, n2 int, edges []Edge) *Bipartite {
	t.Helper()
	b := NewBuilder(n1, n2)
	for _, e := range edges {
		b.Add(e.U, e.V, e.W)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// paperGraph reproduces Figure 1(a) of the paper: A1..A5 vs B1..B4.
func paperGraph(t *testing.T) *Bipartite {
	return mustGraph(t, 5, 4, []Edge{
		{0, 0, 0.6}, // A1-B1
		{4, 0, 0.9}, // A5-B1
		{4, 2, 0.6}, // A5-B3
		{1, 1, 0.7}, // A2-B2
		{2, 3, 0.3}, // A3-B4
	})
}

func TestBuilderBasics(t *testing.T) {
	g := paperGraph(t)
	if g.N1() != 5 || g.N2() != 4 {
		t.Fatalf("sides = (%d,%d), want (5,4)", g.N1(), g.N2())
	}
	if g.NumEdges() != 5 {
		t.Fatalf("NumEdges = %d, want 5", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name string
		f    func(b *Builder)
	}{
		{"u out of range", func(b *Builder) { b.Add(5, 0, 0.5) }},
		{"v out of range", func(b *Builder) { b.Add(0, 9, 0.5) }},
		{"negative u", func(b *Builder) { b.Add(-1, 0, 0.5) }},
		{"NaN weight", func(b *Builder) { b.Add(0, 0, math.NaN()) }},
		{"Inf weight", func(b *Builder) { b.Add(0, 0, math.Inf(1)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(3, 3)
			tc.f(b)
			if _, err := b.Build(); err == nil {
				t.Fatalf("Build succeeded, want error")
			}
		})
	}
	if _, err := NewBuilder(-1, 2).Build(); err == nil {
		t.Fatal("negative side accepted")
	}
	// A side beyond the NodeID range once passed Build and crashed the
	// index build. (On a 32-bit int the increment wraps negative, which
	// is rejected too.)
	big := math.MaxInt32
	big++
	if _, err := NewBuilder(1, big).Build(); err == nil {
		t.Fatal("side beyond the NodeID range accepted")
	}
}

func TestBuilderErrorSticky(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(9, 0, 0.5) // invalid
	b.Add(0, 0, 0.5) // valid, but must not clear the error
	if _, err := b.Build(); err == nil {
		t.Fatal("error was not sticky")
	}
}

func TestDuplicateEdgesKeepMax(t *testing.T) {
	g := mustGraph(t, 2, 2, []Edge{{0, 0, 0.3}, {0, 0, 0.8}, {0, 0, 0.5}})
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if w, ok := g.Weight(0, 0); !ok || w != 0.8 {
		t.Fatalf("Weight(0,0) = %v,%v, want 0.8,true", w, ok)
	}
}

func TestAdjacencySortedDesc(t *testing.T) {
	g := paperGraph(t)
	_, a2 := g.Adjacency()
	lo, hi := a2.Off[0], a2.Off[1] // B1: edges to A5 (0.9) and A1 (0.6)
	if hi-lo != 2 {
		t.Fatalf("deg(B1) = %d, want 2", hi-lo)
	}
	if a2.Opp[lo] != 4 || a2.Opp[lo+1] != 0 || a2.W[lo] != 0.9 || a2.W[lo+1] != 0.6 {
		t.Fatalf("B1 adjacency not weight-sorted: %v %v", a2.Opp[lo:hi], a2.W[lo:hi])
	}
}

func TestEdgesByWeight(t *testing.T) {
	g := paperGraph(t)
	order := g.EdgesByWeight()
	prev := math.Inf(1)
	for _, e := range order {
		if e.W > prev {
			t.Fatalf("EdgesByWeight not descending: %v after %v", e.W, prev)
		}
		prev = e.W
	}
	if order[0].W != 0.9 {
		t.Fatalf("top edge weight = %v, want 0.9", order[0].W)
	}
}

// Weight must find every edge with its weight and no other pair,
// whichever side's list is the shorter.
func TestWeight(t *testing.T) {
	for _, g := range []*Bipartite{paperGraph(t), randomTestGraph(8, 12, 30, 120)} {
		want := map[[2]NodeID]float64{}
		for _, e := range g.Edges() {
			want[[2]NodeID{e.U, e.V}] = e.W
		}
		for u := NodeID(0); int(u) < g.N1(); u++ {
			for v := NodeID(0); int(v) < g.N2(); v++ {
				w, ok := g.Weight(u, v)
				ww, wok := want[[2]NodeID{u, v}]
				if w != ww || ok != wok {
					t.Fatalf("Weight(%d,%d) = %v,%v, want %v,%v", u, v, w, ok, ww, wok)
				}
			}
		}
	}
}

func TestNormalizeMinMax(t *testing.T) {
	g := mustGraph(t, 2, 2, []Edge{{0, 0, 2}, {0, 1, 4}, {1, 1, 6}})
	n := g.NormalizeMinMax()
	want := map[[2]NodeID]float64{{0, 0}: 0, {0, 1}: 0.5, {1, 1}: 1}
	for k, ww := range want {
		if w, _ := n.Weight(k[0], k[1]); math.Abs(w-ww) > 1e-12 {
			t.Fatalf("normalized weight(%v) = %v, want %v", k, w, ww)
		}
	}
	// Constant weights all become 1.
	c := mustGraph(t, 1, 2, []Edge{{0, 0, 7}, {0, 1, 7}}).NormalizeMinMax()
	for _, e := range c.Edges() {
		if e.W != 1 {
			t.Fatalf("constant graph normalized to %v, want 1", e.W)
		}
	}
}

// TestNormalizeSpanBeyondMaxFloat: finite weights more than
// math.MaxFloat64 apart rescale onto [0,1] on both normalizing routes,
// and Validate rejects the non-finite weights an overflowed span used
// to leave.
func TestNormalizeSpanBeyondMaxFloat(t *testing.T) {
	src := "2 2\n0 0 -1e308\n1 1 1e308\n"
	g, err := ReadEdgeList(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(2, 2)
	for _, e := range g.Edges() {
		b.Add(e.U, e.V, e.W)
	}
	fused, err := b.BuildNormalized()
	if err != nil {
		t.Fatal(err)
	}
	want := []Edge{{0, 0, 0}, {1, 1, 1}}
	for _, n := range []*Bipartite{g.NormalizeMinMax(), fused} {
		if !slices.Equal(n.Edges(), want) {
			t.Fatalf("%q normalized to %v, want %v", src, n.Edges(), want)
		}
		if err := n.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if newBipartite(2, 2, []Edge{{0, 0, 0.5}, {1, 1, w}}).Validate() == nil {
			t.Fatalf("Validate accepted weight %v", w)
		}
	}
}

func TestDensityAndTotals(t *testing.T) {
	g := paperGraph(t)
	if got, want := g.Density(), 5.0/20.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Density = %v, want %v", got, want)
	}
	if got := g.MaxWeight(); got != 0.9 {
		t.Fatalf("MaxWeight = %v, want 0.9", got)
	}
	empty := mustGraph(t, 0, 0, nil)
	if empty.Density() != 0 || empty.MaxWeight() != 0 {
		t.Fatal("empty graph stats not zero")
	}
}

// randomGraph builds a random bipartite graph for property tests.
func randomGraph(rng *rand.Rand, maxSide, maxEdges int) *Bipartite {
	n1 := rng.Intn(maxSide) + 1
	n2 := rng.Intn(maxSide) + 1
	b := NewBuilder(n1, n2)
	m := rng.Intn(maxEdges + 1)
	for i := 0; i < m; i++ {
		b.Add(NodeID(rng.Intn(n1)), NodeID(rng.Intn(n2)), rng.Float64())
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func TestPropertyValidateRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 30, 200)
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyNormalizeRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomGraph(rng, 20, 100).NormalizeMinMax()
		for _, e := range n.Edges() {
			if e.W < 0 || e.W > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := paperGraph(t)
	var buf strings.Builder
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.N1() != g.N1() || back.N2() != g.N2() || back.NumEdges() != g.NumEdges() {
		t.Fatal("round trip changed shape")
	}
	for _, e := range g.Edges() {
		if w, ok := back.Weight(e.U, e.V); !ok || w != e.W {
			t.Fatalf("edge (%d,%d) weight %v -> %v,%v", e.U, e.V, e.W, w, ok)
		}
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []struct{ name, input string }{
		{"empty", ""},
		{"bad header", "x y\n"},
		{"bad edge", "2 2\n0 0\n"},
		{"bad weight", "2 2\n0 0 abc\n"},
		{"out of range", "2 2\n5 0 0.5\n"},
		{"edge extra field", "2 2\n0 0 0.5 junk\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadEdgeList(strings.NewReader(tc.input)); err == nil {
				t.Fatal("bad input accepted")
			}
		})
	}
	// The header must be exactly two integers: trailing text once
	// slipped through as a 2x2 graph.
	for _, input := range []string{"2 2 junk\n", "2 2x\n", "2\n", "x y\n", "2 2 3\n0 0 0.5\n"} {
		_, err := ReadEdgeListMax(strings.NewReader(input), 1<<21)
		if err == nil || !strings.HasPrefix(err.Error(), "graph: bad header") {
			t.Errorf("header %q: err = %v, want a bad header error", input, err)
		}
	}
	// Comments and blank lines are tolerated.
	g, err := ReadEdgeList(strings.NewReader("2 2\n# comment\n\n0 1 0.5\n"))
	if err != nil || g.NumEdges() != 1 {
		t.Fatalf("comment handling broken: %v %v", g, err)
	}
}

func TestPropertyEdgeListRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 15, 80)
		var buf strings.Builder
		if err := g.WriteEdgeList(&buf); err != nil {
			return false
		}
		back, err := ReadEdgeList(strings.NewReader(buf.String()))
		if err != nil {
			return false
		}
		if back.NumEdges() != g.NumEdges() {
			return false
		}
		for _, e := range g.Edges() {
			if w, ok := back.Weight(e.U, e.V); !ok || w != e.W {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// randomTestGraph builds a random graph, optionally with duplicate adds
// and equal weights, for exercising the caches.
func randomTestGraph(seed int64, n1, n2, edges int) *Bipartite {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n1, n2)
	for k := 0; k < edges; k++ {
		w := rng.Float64()
		if k%7 == 0 {
			w = 0.5 // exercise weight ties
		}
		b.Add(int32(rng.Intn(n1)), int32(rng.Intn(n2)), w)
	}
	return b.MustBuild()
}

// PairWeights' WeightOrZero must agree with Weight on every cell (0 for
// an absent pair), in both the dense and the map representation.
func TestPairLookupMatchesWeight(t *testing.T) {
	dense := randomTestGraph(3, 20, 30, 150)
	big := randomTestGraph(4, 1<<11, 1<<10, 500) // n1*n2 > denseLookupEntries -> map
	for name, g := range map[string]*Bipartite{"dense": dense, "map": big} {
		l := g.PairWeights()
		if name == "dense" && l.dense == nil {
			t.Fatalf("small graph did not get a dense lookup")
		}
		if name == "map" && l.dense != nil {
			t.Fatalf("big graph got a dense lookup")
		}
		for _, e := range g.Edges() {
			if wz := l.WeightOrZero(e.U, e.V); wz != e.W {
				t.Fatalf("%s: WeightOrZero(%d,%d) = %v, want %v", name, e.U, e.V, wz, e.W)
			}
		}
		// Every cell of the dense graph, and a corner of the big one.
		for u := NodeID(0); u < 20; u++ {
			for v := NodeID(0); v < 30; v++ {
				want, _ := g.Weight(u, v)
				if got := l.WeightOrZero(u, v); got != want {
					t.Fatalf("%s: WeightOrZero(%d,%d) = %v, Weight %v", name, u, v, got, want)
				}
			}
		}
		if l2 := g.PairWeights(); l2 != l {
			t.Fatalf("%s: PairWeights not cached", name)
		}
	}
}

// NormalizeMinMax must equal a from-scratch build of the rescaled edges
// in checksum, both sides' adjacency and the by-weight order, whether or
// not the source graph's V2 side was built first.
func TestNormalizeMinMaxMatchesRebuild(t *testing.T) {
	cases := []func() *Bipartite{
		func() *Bipartite { return randomTestGraph(5, 15, 25, 120) },
		func() *Bipartite { return NewBuilder(3, 3).MustBuild() }, // empty
		func() *Bipartite { // all weights equal: everything becomes 1
			b := NewBuilder(4, 4)
			b.Add(0, 1, 0.3)
			b.Add(2, 3, 0.3)
			b.Add(1, 0, 0.3)
			return b.MustBuild()
		},
		func() *Bipartite { // negative weights
			b := NewBuilder(3, 3)
			b.Add(0, 0, -2)
			b.Add(1, 1, 0)
			b.Add(2, 2, 2)
			return b.MustBuild()
		},
	}
	for i, mk := range cases {
		for _, indexed := range []bool{false, true} {
			g := mk()
			if indexed {
				g.EdgesByWeight()
			}
			got := g.NormalizeMinMax()
			lo, hi := weightRange(g.Edges())
			span := hi - lo
			rb := NewBuilder(g.N1(), g.N2())
			for _, e := range g.Edges() {
				w := 1.0
				if span > 0 {
					w = (e.W - lo) / span
				}
				rb.Add(e.U, e.V, w)
			}
			want := rb.MustBuild()
			if got.Checksum() != want.Checksum() {
				t.Fatalf("case %d indexed=%v: normalized checksum differs from rebuild", i, indexed)
			}
			g1, g2 := got.Adjacency()
			w1, w2 := want.Adjacency()
			if !reflect.DeepEqual(g1, w1) || !reflect.DeepEqual(g2, w2) {
				t.Fatalf("case %d indexed=%v: adjacency differs from rebuild", i, indexed)
			}
			if !slices.Equal(got.EdgesByWeight(), want.EdgesByWeight()) {
				t.Fatalf("case %d indexed=%v: by-weight order differs from rebuild", i, indexed)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("case %d indexed=%v: %v", i, indexed, err)
			}
		}
	}
}

// Each side's adjacency must list exactly the graph's edges, node by
// node, in (weight descending, neighbor ascending) order, for rows short
// enough to sort by insertion and rows long enough for the radix sort.
func TestAdjacencyMatchesEdges(t *testing.T) {
	for _, g := range []*Bipartite{randomTestGraph(6, 30, 20, 200), randomTestGraph(7, 5, 400, 1500)} {
		checkAdjacencyMatchesEdges(t, g)
	}
}

func checkAdjacencyMatchesEdges(t *testing.T, g *Bipartite) {
	t.Helper()
	a1, a2 := g.Adjacency()
	for _, side := range []struct {
		a     Adjacency
		n     int
		nodes func(e Edge) (x, opp NodeID)
	}{
		{a1, g.N1(), func(e Edge) (NodeID, NodeID) { return e.U, e.V }},
		{a2, g.N2(), func(e Edge) (NodeID, NodeID) { return e.V, e.U }},
	} {
		lists := make([][]Edge, side.n)
		for _, e := range g.Edges() {
			x, opp := side.nodes(e)
			lists[x] = append(lists[x], Edge{U: x, V: opp, W: e.W})
		}
		for x, want := range lists {
			slices.SortFunc(want, func(p, q Edge) int {
				switch {
				case p.W > q.W:
					return -1
				case p.W < q.W:
					return 1
				default:
					return int(p.V) - int(q.V)
				}
			})
			lo, hi := side.a.Off[x], side.a.Off[x+1]
			if int(hi-lo) != len(want) {
				t.Fatalf("node %d lists %d entries, has %d edges", x, hi-lo, len(want))
			}
			for k, e := range want {
				if opp, w := side.a.Opp[lo+int32(k)], side.a.W[lo+int32(k)]; opp != e.V || w != e.W {
					t.Fatalf("node %d entry %d: (%d,%v), want (%d,%v)", x, k, opp, w, e.V, e.W)
				}
			}
		}
	}
}

func TestBuilderReserve(t *testing.T) {
	b := NewBuilder(10, 10)
	b.Reserve(64)
	for i := 0; i < 10; i++ {
		b.Add(int32(i), int32(9-i), float64(i+1))
	}
	g := b.MustBuild()
	if g.NumEdges() != 10 {
		t.Fatalf("edges = %d, want 10", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// comparatorByWeight is the reference (W desc, U asc, V asc) permutation
// sort the radix path must reproduce bit for bit.
func comparatorByWeight(edges []Edge) []int32 {
	idx := make([]int32, len(edges))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(x, y int32) int {
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
	return idx
}

// edgeKeys are the radix keys of the edges' weights.
func edgeKeys(edges []Edge) []uint64 {
	keys := make([]uint64, len(edges))
	for i, e := range edges {
		keys[i] = descKey(e.W)
	}
	return keys
}

func TestRadixByWeightMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 256 + rng.Intn(2000)
		// (U,V)-ascending unique pairs with heavy weight ties (quantized
		// weights) plus exact duplicates of magnitude classes.
		edges := make([]Edge, 0, n)
		u, v := int32(0), int32(0)
		for len(edges) < n {
			v += int32(1 + rng.Intn(3))
			if v > 1000 {
				u++
				v = int32(rng.Intn(3))
			}
			w := float64(rng.Intn(16)) / 15
			if rng.Intn(10) == 0 {
				w = 0 // exercise the -0/+0 collapse alongside zeros
			}
			edges = append(edges, Edge{U: u, V: v, W: w})
		}
		if !isSortedUV(edges) {
			t.Fatal("test construction broken: edges not (U,V)-sorted")
		}
		want := comparatorByWeight(edges)
		got := make([]int32, len(edges))
		for i := range got {
			got[i] = int32(i)
		}
		got = radixSort(edgeKeys(edges), make([]uint64, len(edges)), got, make([]int32, len(edges)))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: permutation diverges at %d: %d vs %d", trial, i, got[i], want[i])
			}
		}
	}
}

func TestRadixByWeightNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	edges := make([]Edge, 0, 300)
	for i := 0; i < 300; i++ {
		w := 0.0
		if i%2 == 0 {
			w = negZero
		}
		edges = append(edges, Edge{U: int32(i / 10), V: int32(i % 10), W: w})
	}
	want := comparatorByWeight(edges)
	got := make([]int32, len(edges))
	for i := range got {
		got[i] = int32(i)
	}
	got = radixSort(edgeKeys(edges), make([]uint64, len(edges)), got, make([]int32, len(edges)))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("-0/+0 tie-break diverges at %d: %d vs %d", i, got[i], want[i])
		}
	}
}

// V-major assembled builders (the bag/gram kernels' order) must produce
// graphs byte-identical to the same edges added in arbitrary order.
func TestBuildVMajorMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n1, n2 := 1+rng.Intn(40), 1+rng.Intn(40)
		type pair struct{ u, v int32 }
		seen := map[pair]float64{}
		for k := 0; k < rng.Intn(200); k++ {
			seen[pair{int32(rng.Intn(n1)), int32(rng.Intn(n2))}] = rng.Float64()
		}
		// V-major order.
		bv := NewBuilder(n1, n2)
		for v := 0; v < n2; v++ {
			for u := 0; u < n1; u++ {
				if w, ok := seen[pair{int32(u), int32(v)}]; ok {
					bv.Add(int32(u), int32(v), w)
				}
			}
		}
		// Shuffled order (generic sort path).
		type triple struct {
			u, v int32
			w    float64
		}
		var ts []triple
		for p, w := range seen {
			ts = append(ts, triple{p.u, p.v, w})
		}
		rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
		bs := NewBuilder(n1, n2)
		for _, e := range ts {
			bs.Add(e.u, e.v, e.w)
		}
		gv, gs := bv.MustBuild(), bs.MustBuild()
		if gv.Checksum() != gs.Checksum() {
			t.Fatalf("trial %d: V-major build checksum %016x != generic %016x",
				trial, gv.Checksum(), gs.Checksum())
		}
		if err := gv.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBuildNormalizedMatchesTwoStep pins the fused build+normalize
// against Build().NormalizeMinMax() on random edge sets (duplicates,
// ties, single-weight graphs, empty graphs): identical checksums,
// by-weight order and adjacency.
func TestBuildNormalizedMatchesTwoStep(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 200; iter++ {
		n1, n2 := rng.Intn(8)+1, rng.Intn(8)+1
		e := rng.Intn(30)
		ba, bb := NewBuilder(n1, n2), NewBuilder(n1, n2)
		for k := 0; k < e; k++ {
			u, v := int32(rng.Intn(n1)), int32(rng.Intn(n2))
			w := float64(rng.Intn(5)) / 4 // ties and repeated weights
			if rng.Intn(4) == 0 {
				w = 0.5 // constant-weight graphs exercise the span==0 path
			}
			ba.Add(u, v, w)
			bb.Add(u, v, w)
		}
		fused, err := ba.BuildNormalized()
		if err != nil {
			t.Fatal(err)
		}
		twoStep := bb.MustBuild().NormalizeMinMax()
		if fused.Checksum() != twoStep.Checksum() {
			t.Fatalf("iter %d: checksum %016x != %016x", iter, fused.Checksum(), twoStep.Checksum())
		}
		if !slices.Equal(fused.EdgesByWeight(), twoStep.EdgesByWeight()) {
			t.Fatalf("iter %d: by-weight order diverges", iter)
		}
		if err := fused.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// ResidentBytes counts each component from its lengths: 12 bytes an edge
// plus 4(n+1) of offsets a side, 8 bytes a cell for a dense pair lookup
// and 16 an entry for a map-backed one. No read but Adjacency builds
// the V2 side, and only its first call does.
func TestResidentBytes(t *testing.T) {
	g := paperGraph(t) // 5 x 4, 5 edges
	v1 := Resident{V1: 12*5 + 4*(5+1)}
	if got := g.ResidentBytes(); got != v1 {
		t.Fatalf("constructed: %+v, want %+v", got, v1)
	}
	var buf strings.Builder
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g.Checksum()
	g.Edges()
	g.EdgesByWeight()
	g.Weight(4, 0)
	g.NormalizeMinMax()
	g.Rows()
	if got := g.ResidentBytes(); got != v1 {
		t.Fatalf("after the readers that need no V2 side: %+v, want %+v", got, v1)
	}
	_, a2 := g.Adjacency()
	both := Resident{V1: v1.V1, V2: 12*5 + 4*(4+1)}
	if got := g.ResidentBytes(); got != both {
		t.Fatalf("after Adjacency: %+v, want %+v", got, both)
	}
	if _, again := g.Adjacency(); &again.Opp[0] != &a2.Opp[0] || &again.Off[0] != &a2.Off[0] {
		t.Fatal("a second Adjacency call built the V2 side again")
	}
	g.PairWeights()
	both.PairWeights = 8 * 5 * 4
	if got := g.ResidentBytes(); got != both {
		t.Fatalf("after PairWeights: %+v, want %+v", got, both)
	}

	big := randomTestGraph(4, 1<<11, 1<<10, 500) // n1*n2 > denseLookupEntries -> map
	big.PairWeights()
	m := int64(big.NumEdges())
	want := Resident{V1: 12*m + 4*(1<<11+1), PairWeights: 16 * m}
	if got := big.ResidentBytes(); got != want {
		t.Fatalf("map-backed lookup: %+v, want %+v", got, want)
	}
}

// A rescale that maps distinct weights of one row onto one value must
// leave that row in neighbor order: both normalizing routes re-sort, on
// both sides, rather than keep the order the old weights gave.
func TestRescaleTiesRowOrder(t *testing.T) {
	// Beside -1e16 the span is 1e16, and 1e16 + 0.25 and 1e16 + 0.75
	// both round to 1e16: 0.25 and 0.75 both rescale to 1.
	edges := []Edge{{0, 0, 0.25}, {0, 1, 0.75}, {1, 0, 0.75}, {1, 2, -1e16}}
	g := mustGraph(t, 2, 3, edges)
	a1, a2 := g.Adjacency()
	if a1.Opp[0] != 1 || a2.Opp[0] != 1 {
		t.Fatalf("before rescaling, row 0 of V1 starts %d and of V2 %d, want 1 and 1", a1.Opp[0], a2.Opp[0])
	}
	b := NewBuilder(2, 3)
	for _, e := range edges {
		b.Add(e.U, e.V, e.W)
	}
	fused, err := b.BuildNormalized()
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]*Bipartite{"NormalizeMinMax": g.NormalizeMinMax(), "BuildNormalized": fused} {
		if err := n.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n1, n2 := n.Adjacency()
		for side, a := range map[string]Adjacency{"V1": n1, "V2": n2} {
			lo, hi := a.Off[0], a.Off[1]
			if !slices.Equal(a.Opp[lo:hi], []int32{0, 1}) || !slices.Equal(a.W[lo:hi], []float64{1, 1}) {
				t.Fatalf("%s: %s row 0 = %v %v, want [0 1] [1 1]", name, side, a.Opp[lo:hi], a.W[lo:hi])
			}
		}
	}
}

// The lazy V2 side and pair lookup are built once however many
// goroutines ask at once, and ResidentBytes may read them meanwhile.
func TestConcurrentFirstUse(t *testing.T) {
	g := randomTestGraph(8, 40, 60, 1500)
	want := g.Checksum()
	var wg sync.WaitGroup
	adj := make([]Adjacency, 8)
	for i := range adj {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.ResidentBytes()
			_, adj[i] = g.Adjacency()
			g.PairWeights()
			g.ResidentBytes()
			if g.Checksum() != want {
				t.Error("checksum moved under concurrent use")
			}
		}()
	}
	wg.Wait()
	for _, a := range adj[1:] {
		if &a.Opp[0] != &adj[0].Opp[0] {
			t.Fatal("the V2 side was built more than once")
		}
	}
	if r := g.ResidentBytes(); r.V2 == 0 || r.PairWeights != 8*40*60 {
		t.Fatalf("after concurrent first use: %+v", r)
	}
}
