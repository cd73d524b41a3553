package graph

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randomIOGraph builds a deterministic pseudo-random graph with awkward
// weights (full-precision floats, extremes of the [0,1] range).
func randomIOGraph(t *testing.T, seed int64, n1, n2, edges int) *Bipartite {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n1, n2)
	for k := 0; k < edges; k++ {
		w := rng.Float64()
		switch k % 7 {
		case 0:
			w = 0
		case 1:
			w = 1
		case 2:
			w = math.SmallestNonzeroFloat64
		case 3:
			w = 1 - 1e-16
		}
		b.Add(int32(rng.Intn(n1)), int32(rng.Intn(n2)), w)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestEdgeListRoundTripProperty is the codec property: build -> write ->
// read reproduces the side sizes, the exact edge set (weights at full
// float64 precision) and the content checksum.
func TestEdgeListRoundTripProperty(t *testing.T) {
	cases := []struct {
		seed          int64
		n1, n2, edges int
	}{
		{1, 1, 1, 1},
		{2, 5, 3, 10},
		{3, 40, 60, 500},
		{4, 7, 7, 0}, // no edges, header only
		{5, 100, 1, 80},
	}
	for _, tc := range cases {
		g := randomIOGraph(t, tc.seed, tc.n1, tc.n2, tc.edges)
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadEdgeList(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: read back: %v", tc.seed, err)
		}
		if back.N1() != g.N1() || back.N2() != g.N2() {
			t.Fatalf("seed %d: sides %d/%d, want %d/%d", tc.seed, back.N1(), back.N2(), g.N1(), g.N2())
		}
		if back.NumEdges() != g.NumEdges() {
			t.Fatalf("seed %d: %d edges, want %d", tc.seed, back.NumEdges(), g.NumEdges())
		}
		backEdges := back.Edges()
		for i, e := range g.Edges() {
			if r := backEdges[i]; r != e {
				t.Fatalf("seed %d: edge %d = %+v, want %+v", tc.seed, i, r, e)
			}
		}
		if back.Checksum() != g.Checksum() {
			t.Fatalf("seed %d: checksum changed across round-trip", tc.seed)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("seed %d: round-tripped graph invalid: %v", tc.seed, err)
		}
	}
}

func TestReadEdgeListToleratesCommentsAndBlanks(t *testing.T) {
	input := strings.Join([]string{
		"  3 4  ", // padded header
		"",
		"# a comment",
		"0 1 0.5",
		"   ", // whitespace-only line
		"\t2 3 0.25\t",
		"# trailing comment",
		"",
	}, "\n") + "\n"
	g, err := ReadEdgeList(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if g.N1() != 3 || g.N2() != 4 || g.NumEdges() != 2 {
		t.Fatalf("parsed %d/%d with %d edges", g.N1(), g.N2(), g.NumEdges())
	}
	if w, ok := g.Weight(2, 3); !ok || w != 0.25 {
		t.Fatalf("edge (2,3) = %v, %v", w, ok)
	}
}

// TestReadEdgeListLongLines exercises the scanner's growable buffer (the
// 16 MiB cap): single lines far beyond the 64 KiB initial buffer must
// parse, both as comments and as heavily padded edge lines.
func TestReadEdgeListLongLines(t *testing.T) {
	pad := strings.Repeat(" ", 1<<20) // 1 MiB of spaces on one line
	input := "2 2\n" +
		"#" + strings.Repeat("c", 1<<20) + "\n" + // 1 MiB comment
		"0 0 0.75" + pad + "\n" +
		pad + "1 1 0.5\n"
	g, err := ReadEdgeList(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("%d edges, want 2", g.NumEdges())
	}
	if w, ok := g.Weight(0, 0); !ok || w != 0.75 {
		t.Fatalf("edge (0,0) = %v, %v", w, ok)
	}
}

// TestReadEdgeListLineTooLong pins the other side of the buffer cap: a
// line beyond 16 MiB is an error, not a hang or a silent truncation.
func TestReadEdgeListLineTooLong(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates ~17 MiB")
	}
	input := "2 2\n#" + strings.Repeat("c", 17<<20) + "\n0 0 0.5\n"
	if _, err := ReadEdgeList(strings.NewReader(input)); err == nil {
		t.Fatal("17 MiB line accepted")
	}
}

func TestReadEdgeListMaxNodeCap(t *testing.T) {
	huge := "2000000000 2000000000\n"
	if _, err := ReadEdgeListMax(strings.NewReader(huge), 1000); err == nil {
		t.Fatal("hostile header accepted under cap")
	}
	if g, err := ReadEdgeListMax(strings.NewReader("3 4\n0 0 0.5\n"), 1000); err != nil || g.N1() != 3 {
		t.Fatalf("in-cap graph rejected: %v", err)
	}
	// The exact boundary is allowed.
	if _, err := ReadEdgeListMax(strings.NewReader("3 4\n"), 7); err != nil {
		t.Fatalf("boundary graph rejected: %v", err)
	}
	if _, err := ReadEdgeListMax(strings.NewReader("4 4\n"), 7); err == nil {
		t.Fatal("above-boundary graph accepted")
	}
	// maxNodes 0 preserves the uncapped ReadEdgeList behavior.
	if _, err := ReadEdgeListMax(strings.NewReader("3 4\n"), 0); err != nil {
		t.Fatalf("uncapped read failed: %v", err)
	}
}

func TestChecksumSensitivity(t *testing.T) {
	base := NewBuilder(2, 2)
	base.Add(0, 0, 0.5)
	g1 := base.MustBuild()

	sameB := NewBuilder(2, 2)
	sameB.Add(0, 0, 0.5)
	g2 := sameB.MustBuild()
	if g1.Checksum() != g2.Checksum() {
		t.Fatal("identical graphs, different checksums")
	}

	for name, build := range map[string]func() *Bipartite{
		"weight": func() *Bipartite {
			b := NewBuilder(2, 2)
			b.Add(0, 0, 0.5000000001)
			return b.MustBuild()
		},
		"endpoint": func() *Bipartite {
			b := NewBuilder(2, 2)
			b.Add(0, 1, 0.5)
			return b.MustBuild()
		},
		"sides": func() *Bipartite {
			b := NewBuilder(3, 2)
			b.Add(0, 0, 0.5)
			return b.MustBuild()
		},
		"extra edge": func() *Bipartite {
			b := NewBuilder(2, 2)
			b.Add(0, 0, 0.5)
			b.Add(1, 1, 0.5)
			return b.MustBuild()
		},
	} {
		if build().Checksum() == g1.Checksum() {
			t.Errorf("%s change left checksum unchanged", name)
		}
	}
}
