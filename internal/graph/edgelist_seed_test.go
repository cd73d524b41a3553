package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// seedWriteEdgeList is WriteEdgeList's body before the chunk encoder,
// kept verbatim as the reference the encoder must match byte for byte:
// one fmt.Fprintf per edge through a bufio.Writer.
func seedWriteEdgeList(g *Bipartite, w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.n1, g.n2); err != nil {
		return err
	}
	for _, e := range g.edges {
		if _, err := fmt.Fprintf(bw, "%d %d %s\n", e.U, e.V,
			strconv.FormatFloat(e.W, 'g', -1, 64)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// CheckEdgeListMatchesSeed exposes checkEdgeListMatchesSeed to the
// external test package, which generates graphs through simgraph.
var CheckEdgeListMatchesSeed = checkEdgeListMatchesSeed

// checkEdgeListMatchesSeed fails t unless WriteEdgeList's bytes equal
// seedWriteEdgeList's and Checksum is the FNV-1a hash of those bytes.
func checkEdgeListMatchesSeed(t testing.TB, g *Bipartite) {
	t.Helper()
	var want, got bytes.Buffer
	if err := seedWriteEdgeList(g, &want); err != nil {
		t.Fatalf("seed body: %v", err)
	}
	if err := g.WriteEdgeList(&got); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		w, o := want.Bytes(), got.Bytes()
		i := 0
		for i < len(w) && i < len(o) && w[i] == o[i] {
			i++
		}
		line := bytes.LastIndexByte(w[:i], '\n') + 1
		t.Fatalf("encoded %d bytes, seed %d; first difference at byte %d:\n got %q\nwant %q",
			len(o), len(w), i, firstLine(o[line:]), firstLine(w[line:]))
	}
	h := fnv.New64a()
	h.Write(want.Bytes())
	if sum := g.Checksum(); sum != h.Sum64() {
		t.Fatalf("Checksum %016x, FNV-1a of the seed bytes %016x", sum, h.Sum64())
	}
}

func firstLine(b []byte) []byte {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		return b[:i+1]
	}
	return b
}

// edgeListWeights are the weights where a hand-rolled float formatter
// goes wrong: signed zero, subnormals, both sides of the switch to
// exponent form in 'g' (exponent -5 and 6), and the float64 extremes.
var edgeListWeights = []float64{
	0, math.Copysign(0, -1), 5e-324, 1.5e-323, 1e-310, 2.2250738585072009e-308,
	2.2250738585072014e-308, -2.2250738585072014e-308,
	0.0001, 1e-05, 0.00012345678901234, 9.999999999999999e-05,
	999999, 1e+06, 999999.5, 1.0000001e+06, 123456789,
	1, 0.5, 1.0 / 3, 1 - 1e-16, -0.25, 1e21, 1e-300,
	math.MaxFloat64, -math.MaxFloat64,
}

// TestEdgeListMatchesSeed checks the chunk encoder against the fmt body
// it replaced: edge-case weights, the largest node ids, header-only and
// empty graphs, and graphs spanning many chunks.
func TestEdgeListMatchesSeed(t *testing.T) {
	cases := map[string]*Bipartite{
		"0 0":      mustGraph(t, 0, 0, nil),
		"edgeless": mustGraph(t, 7, 3, nil),
		// The encoder reads only the sides and the edge slice, so ids
		// no Builder could hold at test scale still get exercised.
		"max-int32 ids": {n1: math.MaxInt32 + 1, n2: math.MaxInt32 + 1, edges: []Edge{
			{U: math.MaxInt32, V: math.MaxInt32, W: -2.2250738585072014e-308},
			{U: math.MinInt32, V: math.MinInt32, W: 0.5},
			{U: 0, V: math.MaxInt32, W: 1},
		}},
		"non-finite": {n1: 1, n2: 3, edges: []Edge{
			{U: 0, V: 0, W: math.NaN()}, {U: 0, V: 1, W: math.Inf(1)}, {U: 0, V: 2, W: math.Inf(-1)},
		}},
	}
	var edges []Edge
	for i, w := range edgeListWeights {
		edges = append(edges, Edge{U: NodeID(i), V: NodeID(i % 2), W: w})
	}
	cases["edge weights"] = mustGraph(t, len(edgeListWeights), 2, edges)
	for _, n := range []int{1, 600, 5000} {
		g := randomIOGraph(t, int64(n), 97, 89, n)
		cases[fmt.Sprintf("random %d edges", n)] = g
	}
	// Lines of mixed widths land the chunk boundary at many offsets.
	rng := rand.New(rand.NewSource(16))
	edges = nil
	for k := 0; k < 20_000; k++ {
		w := edgeListWeights[rng.Intn(len(edgeListWeights))]
		if k%3 == 0 {
			w = rng.Float64()
		}
		edges = append(edges, Edge{U: NodeID(rng.Intn(1 << (1 + rng.Intn(20)))), V: NodeID(rng.Intn(1 << 20)), W: w})
	}
	cases["many chunks"] = mustGraph(t, 1<<20, 1<<20, edges)
	for name, g := range cases {
		t.Run(name, func(t *testing.T) { checkEdgeListMatchesSeed(t, g) })
	}
}

// FuzzEdgeListVsSeed compares the encoder with the seed body on any
// graph the capped parser accepts; its seed corpus is in
// testdata/fuzz. The cap is erserve's default -max-nodes: the uncapped
// parser would let a short header demand gigabytes of arrays.
// Multi-chunk output is TestEdgeListMatchesSeed's part.
func FuzzEdgeListVsSeed(f *testing.F) {
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeListMax(strings.NewReader(input), 1<<21)
		if err != nil {
			return
		}
		checkEdgeListMatchesSeed(t, g)
	})
}
