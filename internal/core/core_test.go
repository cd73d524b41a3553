package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/ccer-go/ccer/internal/graph"
)

// Node labels of the paper's Figure 1 example.
const (
	a1 = graph.NodeID(0)
	a2 = graph.NodeID(1)
	a3 = graph.NodeID(2)
	a4 = graph.NodeID(3)
	a5 = graph.NodeID(4)
	b1 = graph.NodeID(0)
	b2 = graph.NodeID(1)
	b3 = graph.NodeID(2)
	b4 = graph.NodeID(3)
)

// figure1 builds the similarity graph of Figure 1(a): a 4-node component
// {A1,B1,A5,B3}, the pairs (A2,B2) and (A3,B4), and a sub-threshold edge
// A4-B4.
func figure1(t *testing.T) *graph.Bipartite {
	t.Helper()
	b := graph.NewBuilder(5, 4)
	b.Add(a1, b1, 0.6)
	b.Add(a5, b1, 0.9)
	b.Add(a5, b3, 0.6)
	b.Add(a2, b2, 0.7)
	b.Add(a3, b4, 0.6)
	b.Add(a4, b4, 0.3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func pairsOf(ps []Pair) [][2]graph.NodeID {
	out := make([][2]graph.NodeID, len(ps))
	for i, p := range ps {
		out[i] = [2]graph.NodeID{p.U, p.V}
	}
	return out
}

func wantPairs(t *testing.T, got []Pair, want [][2]graph.NodeID) {
	t.Helper()
	if !reflect.DeepEqual(pairsOf(got), want) {
		t.Fatalf("pairs = %v, want %v", pairsOf(got), want)
	}
}

// Figure 1(b): CNC keeps only the clean two-node components.
func TestCNCFigure1(t *testing.T) {
	g := figure1(t)
	got := CNC{}.Match(g, 0.5)
	wantPairs(t, got, [][2]graph.NodeID{{a2, b2}, {a3, b4}})
	if err := ValidateMatching(g, got, 0.5); err != nil {
		t.Fatal(err)
	}
}

// Figure 1(d): UMC matches the top-weighted pairs greedily.
func TestUMCFigure1(t *testing.T) {
	g := figure1(t)
	got := UMC{}.Match(g, 0.5)
	wantPairs(t, got, [][2]graph.NodeID{{a2, b2}, {a3, b4}, {a5, b1}})
	if err := ValidateMatching(g, got, 0.5); err != nil {
		t.Fatal(err)
	}
}

// Figure 1(d): EXC agrees with UMC here, as each partner pair is mutually
// best.
func TestEXCFigure1(t *testing.T) {
	g := figure1(t)
	got := EXC{}.Match(g, 0.5)
	wantPairs(t, got, [][2]graph.NodeID{{a2, b2}, {a3, b4}, {a5, b1}})
}

// BMC with V2 as basis reproduces Figure 1(d), per the paper's example;
// with V1 as basis it happens to find the maximum weight assignment, so
// BasisAuto retains that.
func TestBMCFigure1(t *testing.T) {
	g := figure1(t)
	wantPairs(t, BMC{Basis: BasisV2}.Match(g, 0.5),
		[][2]graph.NodeID{{a2, b2}, {a3, b4}, {a5, b1}})
	wantV1 := [][2]graph.NodeID{{a1, b1}, {a2, b2}, {a3, b4}, {a5, b3}}
	wantPairs(t, BMC{Basis: BasisV1}.Match(g, 0.5), wantV1)
	wantPairs(t, BMC{Basis: BasisAuto}.Match(g, 0.5), wantV1)
}

// Figure 1(c): RCA finds the maximum weight assignment, preferring
// A1-B1 + A5-B3 (sum 1.2) over A5-B1 (0.9).
func TestRCAFigure1(t *testing.T) {
	g := figure1(t)
	got := RCA{}.Match(g, 0.5)
	wantPairs(t, got, [][2]graph.NodeID{{a1, b1}, {a2, b2}, {a3, b4}, {a5, b3}})
}

// Figure 1(c): on this small graph the BAH random search converges to the
// optimal assignment within its default step budget.
func TestBAHFigure1(t *testing.T) {
	g := figure1(t)
	got := NewBAH(42).Match(g, 0.5)
	wantPairs(t, got, [][2]graph.NodeID{{a1, b1}, {a2, b2}, {a3, b4}, {a5, b3}})
	if err := ValidateMatching(g, got, 0.5); err != nil {
		t.Fatal(err)
	}
}

// Figure 1(d): KRC's proposals end with A5 winning B1 over A1.
func TestKRCFigure1(t *testing.T) {
	g := figure1(t)
	got := KRC{}.Match(g, 0.5)
	wantPairs(t, got, [][2]graph.NodeID{{a2, b2}, {a3, b4}, {a5, b1}})
}

// RSR under the pseudocode's seed ordering reassigns A5 to B3 and ends at
// the maximum weight configuration of Figure 1(c).
func TestRSRFigure1(t *testing.T) {
	g := figure1(t)
	got := RSR{}.Match(g, 0.5)
	wantPairs(t, got, [][2]graph.NodeID{{a1, b1}, {a2, b2}, {a3, b4}, {a5, b3}})
	if err := ValidateMatching(g, got, 0.5); err != nil {
		t.Fatal(err)
	}
}

// Hungarian and auction find the exact maximum weight matching,
// Figure 1(c), with total weight 2.5.
func TestExactBaselinesFigure1(t *testing.T) {
	g := figure1(t)
	want := [][2]graph.NodeID{{a1, b1}, {a2, b2}, {a3, b4}, {a5, b3}}
	for _, m := range []Matcher{Hungarian{}, Auction{}} {
		got := m.Match(g, 0.5)
		wantPairs(t, got, want)
		if w := TotalWeight(got); math.Abs(w-2.5) > 1e-9 {
			t.Fatalf("%s total weight = %v, want 2.5", m.Name(), w)
		}
	}
}

func TestAllMatchersEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0, 0).MustBuild()
	gOneSided := graph.NewBuilder(5, 0).MustBuild()
	for _, m := range append(paperMatchers(1), Hungarian{}, Auction{}) {
		if got := m.Match(g, 0.5); len(got) != 0 {
			t.Fatalf("%s on empty graph: %v", m.Name(), got)
		}
		if got := m.Match(gOneSided, 0.5); len(got) != 0 {
			t.Fatalf("%s on one-sided graph: %v", m.Name(), got)
		}
	}
}

func TestAllMatchersThresholdAboveMax(t *testing.T) {
	g := figure1(t)
	for _, m := range append(paperMatchers(1), Hungarian{}, Auction{}) {
		if got := m.Match(g, 0.95); len(got) != 0 {
			t.Fatalf("%s with t=0.95: %v", m.Name(), got)
		}
	}
}

func TestThresholdStrictlyGreater(t *testing.T) {
	// An edge exactly at the threshold must be pruned by every algorithm.
	b := graph.NewBuilder(1, 1)
	b.Add(0, 0, 0.5)
	g := b.MustBuild()
	for _, m := range append(paperMatchers(1), Hungarian{}, Auction{}) {
		if got := m.Match(g, 0.5); len(got) != 0 {
			t.Fatalf("%s matched an edge equal to t: %v", m.Name(), got)
		}
		if got := m.Match(g, 0.49); len(got) != 1 {
			t.Fatalf("%s missed the edge above t: %v", m.Name(), got)
		}
	}
}

// A NaN threshold admits no edge: w > NaN is false for every weight, and
// every matcher prunes with !(w > t), so none may return a pair, and
// ValidateMatching rejects any pair at NaN.
func TestNaNThresholdMatchesNothing(t *testing.T) {
	b := graph.NewBuilder(3, 3)
	for u := graph.NodeID(0); u < 3; u++ {
		for v := graph.NodeID(0); v < 3; v++ {
			b.Add(u, v, 0.1+0.3*float64(u)+0.1*float64(v))
		}
	}
	g := b.MustBuild()
	nan := math.NaN()
	for _, name := range append(Names(), "HUN", "AUC") {
		if got := ByName(name, 1).Match(g, nan); len(got) != 0 {
			t.Errorf("%s at t=NaN: %v, want no pairs", name, got)
		}
	}
	if err := ValidateMatching(g, []Pair{{0, 0, 0.1}}, nan); err == nil {
		t.Error("ValidateMatching accepted a pair at t=NaN")
	}
}

func TestByNameAndNames(t *testing.T) {
	for _, name := range Names() {
		m := ByName(name, 7)
		if m == nil {
			t.Fatalf("ByName(%q) = nil", name)
		}
		if m.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, m.Name())
		}
	}
	for _, name := range []string{"HUN", "AUC"} {
		if m := ByName(name, 0); m == nil || m.Name() != name {
			t.Fatalf("ByName(%q) broken", name)
		}
	}
	if ByName("nope", 0) != nil {
		t.Fatal("ByName accepted an unknown name")
	}
}

// paperMatchers returns the paper's eight matchers in Names order, as
// ByName configures them.
func paperMatchers(bahSeed int64) []Matcher {
	ms := make([]Matcher, len(Names()))
	for i, name := range Names() {
		ms[i] = ByName(name, bahSeed)
	}
	return ms
}

func TestValidateMatchingRejects(t *testing.T) {
	g := figure1(t)
	cases := []struct {
		name  string
		pairs []Pair
	}{
		{"duplicate V1 node", []Pair{{a5, b1, 0.9}, {a5, b3, 0.6}}},
		{"duplicate V2 node", []Pair{{a1, b1, 0.6}, {a5, b1, 0.9}}},
		{"not an edge", []Pair{{a1, b2, 0.6}}},
		{"wrong weight", []Pair{{a5, b1, 0.8}}},
		{"below threshold", []Pair{{a4, b4, 0.3}}},
		{"out of range", []Pair{{9, b1, 0.9}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := ValidateMatching(g, tc.pairs, 0.5); err == nil {
				t.Fatal("invalid matching accepted")
			}
		})
	}
}

func TestBAHDeterministicPerSeed(t *testing.T) {
	g := randomBipartite(rand.New(rand.NewSource(11)), 40, 40, 300)
	m := NewBAH(123)
	r1 := m.Match(g, 0.2)
	r2 := m.Match(g, 0.2)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("BAH is not deterministic for a fixed seed")
	}
}

func TestBAHImprovesOverInitial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomBipartite(rng, 30, 50, 400)
	zero := BAH{Seed: 1, MaxSteps: 1}.Match(g, 0.1)
	long := BAH{Seed: 1, MaxSteps: 20000}.Match(g, 0.1)
	if TotalWeight(long) < TotalWeight(zero) {
		t.Fatalf("BAH got worse with more steps: %v < %v",
			TotalWeight(long), TotalWeight(zero))
	}
}

// randomBipartite builds a random graph for property-style tests.
func randomBipartite(rng *rand.Rand, n1, n2, m int) *graph.Bipartite {
	b := graph.NewBuilder(n1, n2)
	for i := 0; i < m; i++ {
		b.Add(graph.NodeID(rng.Intn(n1)), graph.NodeID(rng.Intn(n2)), rng.Float64())
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
