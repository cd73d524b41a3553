package vector

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/ccer-go/ccer/internal/datagen"
	"github.com/ccer-go/ccer/internal/strsim"
)

func approx(t *testing.T, got, want float64, name string) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("%s = %v, want %v", name, got, want)
	}
}

func TestCharNGrams(t *testing.T) {
	got := CharNGrams("joe", 2)
	want := []string{"jo", "oe"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("CharNGrams = %v, want %v", got, want)
	}
	if got := CharNGrams("ab", 3); len(got) != 1 || got[0] != "ab" {
		t.Fatalf("short string grams = %v, want [ab]", got)
	}
	if got := CharNGrams("", 2); got != nil {
		t.Fatalf("empty string grams = %v", got)
	}
	// "Joe Biden" has seven character 3-grams, as in the paper's example.
	if got := CharNGrams("Joe Biden", 3); len(got) != 7 {
		t.Fatalf("character 3-grams of 'Joe Biden': %d, want 7", len(got))
	}
}

func TestTokenNGrams(t *testing.T) {
	got := TokenNGrams([]string{"joe", "biden", "president"}, 2)
	if len(got) != 2 || got[0] != "joe biden" || got[1] != "biden president" {
		t.Fatalf("TokenNGrams = %v", got)
	}
	if got := TokenNGrams([]string{"joe"}, 2); len(got) != 1 || got[0] != "joe" {
		t.Fatalf("short token grams = %v", got)
	}
}

func TestModes(t *testing.T) {
	ms := Modes()
	if len(ms) != 6 {
		t.Fatalf("Modes: %d, want 6", len(ms))
	}
	names := map[string]bool{}
	for _, m := range ms {
		names[m.String()] = true
	}
	for _, want := range []string{"char2", "char3", "char4", "token1", "token2", "token3"} {
		if !names[want] {
			t.Fatalf("missing mode %s in %v", want, names)
		}
	}
}

func TestVecOps(t *testing.T) {
	a := Vec{IDs: []int32{0, 2, 5}, Ws: []float64{1, 2, 3}}
	b := Vec{IDs: []int32{2, 5, 7}, Ws: []float64{4, 1, 2}}
	approx(t, Dot(a, b), 2*4+3*1, "Dot")
	approx(t, a.Norm(), math.Sqrt(1+4+9), "Norm")
	approx(t, Cosine(a, a), 1, "Cosine self")
	approx(t, JaccardSet(a, b), 2.0/4.0, "JaccardSet")
	approx(t, GeneralizedJaccard(a, a), 1, "GenJaccard self")
	// GenJaccard by hand: min: ids 2,5 -> 2,1 = 3; max: 1+4+3+2 = 10.
	approx(t, GeneralizedJaccard(a, b), 3.0/10.0, "GenJaccard")
	empty := Vec{}
	approx(t, Cosine(a, empty), 0, "Cosine empty")
	approx(t, JaccardSet(empty, empty), 1, "JaccardSet both empty")
}

func newTestSpace(mode Mode) *Space {
	return NewSpace(mode,
		[]string{"green apple pie", "red onion soup", "blue fish"},
		[]string{"green apple tart", "red onion soup", "chocolate cake"},
	)
}

func TestSpaceIdenticalDocs(t *testing.T) {
	for _, mode := range Modes() {
		s := newTestSpace(mode)
		for _, m := range Measures() {
			// doc 1 of each collection is identical text.
			sim := s.Sim(m, 1, 1)
			if m == MeasureARCS {
				// ARCS is not self-normalized: it rewards rarity of the
				// shared grams, so identical docs just score positively.
				if sim <= 0 || sim > 1 {
					t.Fatalf("%s/ARCS identical docs sim = %v, want in (0,1]", mode, sim)
				}
				continue
			}
			if math.Abs(sim-1) > 1e-9 {
				t.Fatalf("%s/%s identical docs sim = %v, want 1", mode, m, sim)
			}
		}
	}
}

func TestSpaceDisjointDocs(t *testing.T) {
	s := newTestSpace(Mode{Char: false, N: 1})
	// "blue fish" vs "chocolate cake" share no tokens.
	for _, m := range Measures() {
		if sim := s.Sim(m, 2, 2); sim != 0 {
			t.Fatalf("%s disjoint docs sim = %v, want 0", m, sim)
		}
	}
}

func TestSpaceRelativeOrder(t *testing.T) {
	s := newTestSpace(Mode{Char: false, N: 1})
	for _, m := range Measures() {
		match := s.Sim(m, 0, 0)    // "green apple pie" vs "green apple tart"
		nonmatch := s.Sim(m, 0, 2) // vs "chocolate cake"
		if match <= nonmatch {
			t.Fatalf("%s: match %v <= non-match %v", m, match, nonmatch)
		}
	}
}

func TestTFIDFDiscountsCommonGrams(t *testing.T) {
	// "the" appears everywhere; "zebra" only in the matching pair.
	s := NewSpace(Mode{Char: false, N: 1},
		[]string{"the zebra", "the lion", "the ant"},
		[]string{"the zebra", "the bear", "the wasp"},
	)
	tfidfMatch := s.Sim(MeasureCosineTFIDF, 0, 0)
	tfidfShared := s.Sim(MeasureCosineTFIDF, 1, 1) // only "the" shared
	if tfidfShared >= tfidfMatch {
		t.Fatalf("TF-IDF did not discount the stop word: %v >= %v", tfidfShared, tfidfMatch)
	}
	tfShared := s.Sim(MeasureCosineTF, 1, 1)
	if tfidfShared >= tfShared {
		t.Fatalf("TF-IDF weight for stop-word-only pair (%v) should be below TF (%v)",
			tfidfShared, tfShared)
	}
}

func TestARCSPrefersRareGrams(t *testing.T) {
	s := NewSpace(Mode{Char: false, N: 1},
		[]string{"common rare1", "common x", "common y"},
		[]string{"common rare1", "common z", "common w"},
	)
	rarePair := s.ARCS(0, 0)   // shares "common" and the rare "rare1"
	commonPair := s.ARCS(1, 1) // shares only "common"
	if rarePair <= commonPair {
		t.Fatalf("ARCS: rare-gram pair %v <= common-gram pair %v", rarePair, commonPair)
	}
}

func TestCandidatePairs(t *testing.T) {
	s := newTestSpace(Mode{Char: false, N: 1})
	pairs := s.CandidatePairs()
	want := map[[2]int32]bool{
		{0, 0}: true, // share "green", "apple"
		{1, 1}: true, // identical
	}
	got := map[[2]int32]bool{}
	for _, p := range pairs {
		got[p] = true
		if s.Sim(MeasureJaccard, int(p[0]), int(p[1])) == 0 {
			t.Fatalf("candidate pair %v has zero similarity", p)
		}
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("missing candidate pair %v; got %v", p, got)
		}
	}
	// Completeness: every positive-similarity pair is a candidate.
	for i := 0; i < len(s.docs1); i++ {
		for j := 0; j < len(s.docs2); j++ {
			if s.Sim(MeasureJaccard, i, j) > 0 && !got[[2]int32{int32(i), int32(j)}] {
				t.Fatalf("pair (%d,%d) has positive similarity but is not a candidate", i, j)
			}
		}
	}
}

// All measures stay in [0,1] and equal 1 on identical random texts.
func TestPropertyMeasureRange(t *testing.T) {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	gen := func(rng *rand.Rand) string {
		n := rng.Intn(6) + 1
		parts := make([]string, n)
		for i := range parts {
			parts[i] = words[rng.Intn(len(words))]
		}
		return strings.Join(parts, " ")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		t1 := make([]string, 4)
		t2 := make([]string, 4)
		for i := range t1 {
			t1[i] = gen(rng)
			t2[i] = gen(rng)
		}
		for _, mode := range Modes() {
			s := NewSpace(mode, t1, t2)
			for _, m := range Measures() {
				for i := range t1 {
					for j := range t2 {
						sim := s.Sim(m, i, j)
						if sim < 0 || sim > 1+1e-9 || math.IsNaN(sim) {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// AllSims must equal the individual Sim calls bit for bit, on the small
// test space and on the texts of the task internal/simgraph's golden
// test generates from, under every mode: the golden test's dense loop
// reads AllSims, so this is what pins the kernel to the definitions.
func TestAllSimsConsistent(t *testing.T) {
	spec, err := datagen.SpecByID("D2")
	if err != nil {
		t.Fatal(err)
	}
	golden := spec.Generate(3, 0.03)
	for _, mode := range Modes() {
		for _, s := range []*Space{newTestSpace(mode), NewSpace(mode, golden.V1.Texts(), golden.V2.Texts())} {
			for i := range s.docs1 {
				for j := range s.docs2 {
					all := s.AllSims(i, j)
					for k, m := range Measures() {
						if want := s.Sim(m, i, j); math.Float64bits(all[k]) != math.Float64bits(want) {
							t.Fatalf("%s AllSims[%s](%d,%d) = %v, want %v", mode, m, i, j, all[k], want)
						}
					}
				}
			}
		}
	}
}

// The memoized TF-IDF vectors must equal a from-scratch materialization,
// and CandidatePairs must come back grouped by j with i ascending and
// free of duplicates.
func TestCacheAndCandidateOrder(t *testing.T) {
	s := newTestSpace(Mode{Char: true, N: 3})
	c1, c2 := s.CacheTFIDF()
	for i := range c1 {
		tf := s.TF(1, i)
		for k, id := range tf.IDs {
			want := tf.Ws[k] * s.idf[id]
			if c1[i].Ws[k] != want {
				t.Fatalf("tfidf1[%d][%d] = %v, want %v", i, k, c1[i].Ws[k], want)
			}
		}
	}
	if len(c2) != len(s.docs2) {
		t.Fatalf("tfidf2 has %d entries, want %d", len(c2), len(s.docs2))
	}
	pairs := s.CandidatePairs()
	seen := map[[2]int32]bool{}
	for k, p := range pairs {
		if seen[p] {
			t.Fatalf("duplicate candidate pair %v", p)
		}
		seen[p] = true
		if k > 0 {
			prev := pairs[k-1]
			if prev[1] > p[1] || (prev[1] == p[1] && prev[0] >= p[0]) {
				t.Fatalf("candidate pairs out of order: %v before %v", prev, p)
			}
		}
	}
}

// refSpace builds the document vectors the way the historical
// implementation did — string grams via Mode.Grams into a
// map[string]int32 vocabulary — as the reference for the allocation-free
// interner path.
func refSpaceDocs(mode Mode, texts []string, vocab map[string]int32) []Vec {
	docs := make([]Vec, len(texts))
	var ids []int32
	for i, text := range texts {
		grams := mode.Grams(text)
		ids = ids[:0]
		for _, g := range grams {
			id, ok := vocab[g]
			if !ok {
				id = int32(len(vocab))
				vocab[g] = id
			}
			ids = append(ids, id)
		}
		slices.Sort(ids)
		v := Vec{}
		norm := float64(len(grams))
		for k := 0; k < len(ids); {
			j := k + 1
			for j < len(ids) && ids[j] == ids[k] {
				j++
			}
			v.IDs = append(v.IDs, ids[k])
			v.Ws = append(v.Ws, float64(j-k)/norm)
			k = j
		}
		docs[i] = v
	}
	return docs
}

// TestInternerMatchesStringVocab pins the rune-window / token-tuple
// interner against the string-keyed vocabulary: identical gram ids,
// identical vectors, for every mode, over texts with empties, repeats,
// short-string grams and unicode.
func TestInternerMatchesStringVocab(t *testing.T) {
	texts1 := []string{
		"golden dragon bistro", "", "a", "ab", "a b", "日本語 カフェ",
		"!!!", "repeat repeat repeat", "Éclair café", "x",
	}
	texts2 := []string{
		"golden dragon", "harbor grill house", "", "ab", "b a",
		"日本語", "repeat", "zz zz zz zz",
	}
	for _, mode := range Modes() {
		s := NewSpace(mode, texts1, texts2)
		vocab := map[string]int32{}
		ref1 := refSpaceDocs(mode, texts1, vocab)
		ref2 := refSpaceDocs(mode, texts2, vocab)
		if s.vocabSize != len(vocab) {
			t.Fatalf("%v: vocabSize %d != reference %d", mode, s.vocabSize, len(vocab))
		}
		checkDocs := func(got, want []Vec, side int) {
			t.Helper()
			for i := range want {
				if !slices.Equal(got[i].IDs, want[i].IDs) {
					t.Fatalf("%v side %d entity %d: ids %v != %v", mode, side, i, got[i].IDs, want[i].IDs)
				}
				if !slices.Equal(got[i].Ws, want[i].Ws) {
					t.Fatalf("%v side %d entity %d: ws %v != %v", mode, side, i, got[i].Ws, want[i].Ws)
				}
			}
		}
		checkDocs(s.docs1, ref1, 1)
		checkDocs(s.docs2, ref2, 2)

		// Pre-tokenized construction must be identical too.
		toks := func(texts []string) [][]string {
			out := make([][]string, len(texts))
			for i, txt := range texts {
				out[i] = strsim.Tokenize(txt)
			}
			return out
		}
		st := newSpace(mode, texts1, texts2, toks(texts1), toks(texts2))
		checkDocs(st.docs1, ref1, 1)
		checkDocs(st.docs2, ref2, 2)
	}
}

// TestUnionCandidatesSortedClear pins the bitset-walk enumeration:
// ascending distinct output, bitset cleared afterwards.
func TestUnionCandidatesSortedClear(t *testing.T) {
	lists := [][]int32{{0, 2}, {1}, {0, 1, 3}, {}, {2, 3}}
	off, post := BuildPostings(lists, 4)
	bits := make([]uint64, 1)
	for _, query := range [][]int32{{0}, {1, 2}, {3, 3, 0}, {}} {
		got := UnionCandidates(query, off, post, bits, nil)
		want := map[int32]bool{}
		for _, id := range query {
			for i, l := range lists {
				for _, x := range l {
					if x == id {
						want[int32(i)] = true
					}
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("query %v: got %v", query, got)
		}
		for k := 1; k < len(got); k++ {
			if got[k-1] >= got[k] {
				t.Fatalf("query %v: not ascending: %v", query, got)
			}
		}
		for _, i := range got {
			if !want[int32(i)] {
				t.Fatalf("query %v: spurious %d", query, i)
			}
		}
		if bits[0] != 0 {
			t.Fatal("bitset not cleared")
		}
	}
}
