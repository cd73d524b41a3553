package ngraph

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/ccer-go/ccer/internal/datagen"
	"github.com/ccer-go/ccer/internal/dataset"
	"github.com/ccer-go/ccer/internal/strsim"
	"github.com/ccer-go/ccer/internal/vector"
)

func approx(t *testing.T, got, want float64, name string) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("%s = %v, want %v", name, got, want)
	}
}

func charMode(n int) vector.Mode  { return vector.Mode{Char: true, N: n} }
func tokenMode(n int) vector.Mode { return vector.Mode{Char: false, N: n} }

func TestFromValueStructure(t *testing.T) {
	v := NewVocab()
	// "Joe Biden" has 7 character trigrams; with window 3 each gram
	// connects to up to 3 successors.
	g := FromValue(v, charMode(3), "Joe Biden")
	if g.NumEdges() == 0 {
		t.Fatal("no edges built")
	}
	ids := g.GramIDs()
	if len(ids) != 7 {
		t.Fatalf("gram nodes = %d, want 7", len(ids))
	}
	// Edge count: pairs (i, i+d), d in 1..3, i+d < 7 => 6+5+4 = 15
	// (all trigrams of "Joe Biden" are distinct).
	if g.NumEdges() != 15 {
		t.Fatalf("edges = %d, want 15", g.NumEdges())
	}
}

func TestFromValueEmpty(t *testing.T) {
	v := NewVocab()
	g := FromValue(v, charMode(3), "")
	if g.NumEdges() != 0 {
		t.Fatalf("empty value has %d edges", g.NumEdges())
	}
	approx(t, Containment(g, g), 1, "Containment empty-empty")
	g2 := FromValue(v, charMode(3), "something")
	approx(t, Containment(g, g2), 0, "Containment empty-nonempty")
	approx(t, Value(g, g2), 0, "Value empty-nonempty")
	approx(t, NormalizedValue(g, g2), 0, "NormalizedValue empty-nonempty")
}

func TestSimilaritiesIdentical(t *testing.T) {
	v := NewVocab()
	a := FromValue(v, charMode(3), "entity resolution")
	b := FromValue(v, charMode(3), "entity resolution")
	for _, m := range Measures() {
		approx(t, Sim(m, a, b), 1, m+" identical")
	}
}

func TestSimilaritiesDisjoint(t *testing.T) {
	v := NewVocab()
	a := FromValue(v, tokenMode(1), "alpha beta gamma")
	b := FromValue(v, tokenMode(1), "delta epsilon zeta")
	for _, m := range Measures() {
		approx(t, Sim(m, a, b), 0, m+" disjoint")
	}
}

func TestSimilarityOrdering(t *testing.T) {
	v := NewVocab()
	a := FromValue(v, charMode(3), "green apple pie")
	near := FromValue(v, charMode(3), "green apple tart")
	far := FromValue(v, charMode(3), "quantum flux device")
	for _, m := range Measures() {
		if Sim(m, a, near) <= Sim(m, a, far) {
			t.Fatalf("%s: near %v <= far %v", m, Sim(m, a, near), Sim(m, a, far))
		}
	}
}

func TestOrderSensitivity(t *testing.T) {
	// Bag models cannot tell these apart; graph models can, because edges
	// encode gram adjacency.
	v := NewVocab()
	// Note: a full reversal would keep the same undirected edges, so use
	// a proper shuffle.
	a := FromValue(v, tokenMode(1), "new york city hall")
	b := FromValue(v, tokenMode(1), "york hall new city")
	sim := Containment(a, b)
	if sim >= 1 {
		t.Fatalf("reordered tokens have containment %v, want < 1", sim)
	}
}

func TestMergeRunningAverage(t *testing.T) {
	v := NewVocab()
	// Same single edge in both graphs with weights 1 and 3: merged = 2.
	g1 := FromValue(v, tokenMode(1), "a b")
	g2 := &Graph{keys: append([]uint64(nil), g1.keys...), ws: []float64{3}}
	merged := Merge([]*Graph{g1, g2})
	if merged.NumEdges() != 1 {
		t.Fatalf("merged edges = %d, want 1", merged.NumEdges())
	}
	for _, w := range merged.ws {
		approx(t, w, 2, "merged weight")
	}
	// Merging with nil graphs is a no-op.
	merged2 := Merge([]*Graph{g1, nil})
	if merged2.NumEdges() != 1 {
		t.Fatalf("merge with nil: %d edges", merged2.NumEdges())
	}
}

func TestFromEntityMergesValues(t *testing.T) {
	v := NewVocab()
	g := FromEntity(v, tokenMode(1), []string{"john smith", "new york"})
	single := FromValue(v, tokenMode(1), "john smith")
	if Containment(single, g) != 1 {
		t.Fatalf("entity graph does not contain its value graph: %v",
			Containment(single, g))
	}
}

func TestValueVsNormalizedValue(t *testing.T) {
	v := NewVocab()
	small := FromValue(v, tokenMode(1), "alpha beta")
	big := FromValue(v, tokenMode(1), "alpha beta gamma delta epsilon zeta eta theta")
	vs := Value(small, big)
	ns := NormalizedValue(small, big)
	if ns < vs {
		t.Fatalf("NormalizedValue (%v) should be >= Value (%v) for imbalanced graphs", ns, vs)
	}
	approx(t, Overall(small, big), (Containment(small, big)+vs+ns)/3, "Overall")
}

// Similarities stay in [0,1], are symmetric, and self-similarity is 1 for
// non-empty graphs.
func TestPropertyGraphSimContracts(t *testing.T) {
	words := []string{"red", "green", "blue", "apple", "pie", "soup", "york"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gen := func() string {
			n := rng.Intn(6) + 2
			parts := make([]string, n)
			for i := range parts {
				parts[i] = words[rng.Intn(len(words))]
			}
			return strings.Join(parts, " ")
		}
		v := NewVocab()
		modes := []vector.Mode{charMode(2), charMode(3), tokenMode(1), tokenMode(2)}
		mode := modes[rng.Intn(len(modes))]
		a := FromValue(v, mode, gen())
		b := FromValue(v, mode, gen())
		for _, m := range Measures() {
			sab, sba := Sim(m, a, b), Sim(m, b, a)
			if sab < 0 || sab > 1+1e-9 || math.IsNaN(sab) {
				return false
			}
			if math.Abs(sab-sba) > 1e-9 {
				return false
			}
		}
		if a.NumEdges() > 0 {
			for _, m := range Measures() {
				if math.Abs(Sim(m, a, a)-1) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// AllSims must equal the individual measures bit for bit, on a few
// short values and on the entity graphs of the golden task (the D2
// task internal/simgraph's golden test generates from) under every
// mode: the golden test's dense loop reads AllSims, so this is what
// pins the kernel to the per-measure definitions.
func TestAllSimsConsistent(t *testing.T) {
	check := func(name string, as, bs []*Graph) {
		t.Helper()
		for i, a := range as {
			for j, b := range bs {
				all := AllSims(a, b)
				want := [4]float64{Containment(a, b), Value(a, b), NormalizedValue(a, b), Overall(a, b)}
				for k := range want {
					if math.Float64bits(all[k]) != math.Float64bits(want[k]) {
						t.Fatalf("%s: AllSims[%d](%d,%d) = %v, want %v", name, k, i, j, all[k], want[k])
					}
				}
			}
		}
	}
	v := NewVocab()
	var short []*Graph
	for _, text := range []string{"green apple pie", "green apple tart", "", "quantum flux device"} {
		short = append(short, FromValue(v, charMode(3), text))
	}
	check("short values", short, short)

	spec, err := datagen.SpecByID("D2")
	if err != nil {
		t.Fatal(err)
	}
	task := spec.Generate(3, 0.03)
	for _, mode := range vector.Modes() {
		v := NewVocab()
		entities := func(c *dataset.Collection) []*Graph {
			out := make([]*Graph, c.Len())
			for i, p := range c.Profiles {
				out[i] = FromEntity(v, mode, p.Values())
			}
			return out
		}
		check(mode.String(), entities(task.V1), entities(task.V2))
	}
}

// refMerge is the earlier sort-based Merge, retained as the reference
// for the accumulator rewrite: sort all (key, graph-order, weight)
// triples, fold each key run with the incremental average in graph
// order.
func refMerge(graphs []*Graph) *Graph {
	live := graphs[:0:0]
	total := 0
	for _, g := range graphs {
		if g != nil && len(g.keys) > 0 {
			live = append(live, g)
			total += len(g.keys)
		}
	}
	if len(live) == 0 {
		return &Graph{}
	}
	if len(live) == 1 {
		return &Graph{keys: append([]uint64(nil), live[0].keys...),
			ws: append([]float64(nil), live[0].ws...)}
	}
	type kow struct {
		k   uint64
		ord int32
		w   float64
	}
	all := make([]kow, 0, total)
	for ord, g := range live {
		for i, k := range g.keys {
			all = append(all, kow{k, int32(ord), g.ws[i]})
		}
	}
	slices.SortFunc(all, func(a, b kow) int {
		switch {
		case a.k < b.k:
			return -1
		case a.k > b.k:
			return 1
		default:
			return int(a.ord) - int(b.ord)
		}
	})
	merged := &Graph{keys: make([]uint64, 0, total), ws: make([]float64, 0, total)}
	for i := 0; i < len(all); {
		j := i + 1
		w := all[i].w
		for ; j < len(all) && all[j].k == all[i].k; j++ {
			w += (all[j].w - w) / float64(j-i+1)
		}
		merged.keys = append(merged.keys, all[i].k)
		merged.ws = append(merged.ws, w)
		i = j
	}
	return merged
}

// TestMergeMatchesSortReference pins the accumulator Merge bit-for-bit
// against the sort-based reference on random per-value graphs.
func TestMergeMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 500; iter++ {
		n := rng.Intn(6)
		graphs := make([]*Graph, n)
		for gi := range graphs {
			if rng.Intn(5) == 0 {
				if rng.Intn(2) == 0 {
					graphs[gi] = nil
				} else {
					graphs[gi] = &Graph{}
				}
				continue
			}
			e := rng.Intn(12)
			keys := make([]uint64, 0, e)
			for k := 0; k < e; k++ {
				keys = append(keys, edgeKey(int32(rng.Intn(6)), int32(rng.Intn(6))))
			}
			// fromKeys sorts and RLEs; weights become run lengths.
			graphs[gi] = fromKeys(keys)
		}
		got := Merge(graphs)
		want := refMerge(graphs)
		if !slices.Equal(got.keys, want.keys) {
			t.Fatalf("iter %d: keys %v != %v", iter, got.keys, want.keys)
		}
		for i := range want.ws {
			if got.ws[i] != want.ws[i] {
				t.Fatalf("iter %d key %d: w %v != %v (bitwise)", iter, i, got.ws[i], want.ws[i])
			}
		}
	}
}

// TestGramIDsMatchesSortReference pins the merged-runs GramIDs against
// the full-sort reference.
func TestGramIDsMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 300; iter++ {
		e := rng.Intn(20)
		keys := make([]uint64, 0, e)
		for k := 0; k < e; k++ {
			keys = append(keys, edgeKey(int32(rng.Intn(9)), int32(rng.Intn(9))))
		}
		g := fromKeys(keys)
		got := g.GramIDs()
		ids := make([]int32, 0, 2*len(g.keys))
		for _, k := range g.keys {
			ids = append(ids, int32(k>>32), int32(uint32(k)))
		}
		slices.Sort(ids)
		var want []int32
		for _, id := range ids {
			if len(want) == 0 || want[len(want)-1] != id {
				want = append(want, id)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("iter %d: %v != %v", iter, got, want)
		}
	}
}

// TestFromValueFastPathMatchesStringPath pins the window/tuple interning
// against the string-gram path on a fresh vocabulary each.
func TestFromValueFastPathMatchesStringPath(t *testing.T) {
	values := []string{
		"golden dragon bistro", "", "a", "ab", "日本語 カフェ", "!!!",
		"repeat repeat", "Éclair café au lait", "a b c d e",
	}
	for _, mode := range vector.Modes() {
		fastVocab, strVocab := NewVocab(), NewVocab()
		for _, val := range values {
			fast := FromValue(fastVocab, mode, val)
			// String path: force the fallback by interning via ID.
			var grams []string
			if mode.Char {
				grams = vector.CharNGrams(val, mode.N)
			} else {
				grams = vector.TokenNGrams(strsim.Tokenize(val), mode.N)
			}
			ids := make([]int32, len(grams))
			for i, gram := range grams {
				ids[i] = strVocab.ID(gram)
			}
			var keys []uint64
			for i := range ids {
				for d := 1; d <= mode.N && i+d < len(ids); d++ {
					if ids[i] == ids[i+d] {
						continue
					}
					keys = append(keys, edgeKey(ids[i], ids[i+d]))
				}
			}
			want := fromKeys(keys)
			if !slices.Equal(fast.keys, want.keys) || !slices.Equal(fast.ws, want.ws) {
				t.Fatalf("%v %q: fast %v/%v != string %v/%v", mode, val, fast.keys, fast.ws, want.keys, want.ws)
			}
		}
		if fastVocab.Size() != strVocab.Size() {
			t.Fatalf("%v: vocab sizes diverge: %d != %d", mode, fastVocab.Size(), strVocab.Size())
		}
	}
}
