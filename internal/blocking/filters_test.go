package blocking

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ccer-go/ccer/internal/dataset"
	"github.com/ccer-go/ccer/internal/strsim"
)

// randText draws a short string over a split alphabet: even seeds use
// the first half, odd seeds the second, so disjoint-alphabet pairs occur
// often enough to exercise the zero branches.
func randText(rng *rand.Rand, alphabet []rune) string {
	n := rng.Intn(12)
	out := make([]rune, n)
	for i := range out {
		out[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(out)
}

// TestSigZeroScoreProperty is the losslessness proof by sampling: for
// random pairs, whenever the raw-rune signatures are disjoint, every
// measure the filter covers must be exactly zero; whenever the
// token-level signatures are disjoint (and the token lists are not both
// empty), all nine token measures must be exactly zero.
func TestSigZeroScoreProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	left := []rune("abcdeABCDE 123日本")
	right := []rune("vwxyzVWXYZ 789éü")
	both := append(append([]rune{}, left...), right...)
	// The covered char measures are every character measure but
	// Needleman-Wunsch, resolved against the LIVE measure registry, so a
	// renamed measure fails here instead of leaving the property
	// untested.
	charMeasures := map[string]func(a, b string) float64{
		"SmithWaterman": strsim.SmithWaterman, // Monge-Elkan's core, not in AllMeasures
	}
	all := strsim.AllMeasures()
	for _, name := range []string{
		"Levenshtein", "DamerauLevenshtein", "Jaro", "QGramsDistance",
		"LongestCommonSubstr", "LongestCommonSubseq",
	} {
		f, ok := all[name]
		if !ok {
			t.Fatalf("strsim.AllMeasures does not provide %q", name)
		}
		charMeasures[name] = f
	}
	disjointSeen, tokDisjointSeen := 0, 0
	for iter := 0; iter < 3000; iter++ {
		var a, b string
		switch iter % 3 {
		case 0:
			a, b = randText(rng, left), randText(rng, right)
		case 1:
			a, b = randText(rng, both), randText(rng, both)
		default:
			a, b = randText(rng, left), randText(rng, both)
		}
		if a == "" || b == "" {
			continue // generation skips empty texts before any filter
		}
		if !Sig128Of(a).Intersects(Sig128Of(b)) {
			disjointSeen++
			for name, f := range charMeasures {
				if sim := f(a, b); sim != 0 {
					t.Fatalf("%s(%q,%q) = %v with disjoint signatures", name, a, b, sim)
				}
			}
		}
		ta, tb := strsim.Tokenize(a), strsim.Tokenize(b)
		if !Sig128OfTokens(ta).Intersects(Sig128OfTokens(tb)) && !(len(ta) == 0 && len(tb) == 0) {
			tokDisjointSeen++
			sims := strsim.TokenSims(strsim.NewTokenProfile(ta), strsim.NewTokenProfile(tb), 1<<9-1, nil)
			for k, sim := range sims {
				if sim != 0 {
					t.Fatalf("token measure %d of (%q,%q) = %v with disjoint token signatures", k, a, b, sim)
				}
			}
		}
	}
	if disjointSeen < 100 || tokDisjointSeen < 100 {
		t.Fatalf("too few disjoint pairs sampled (%d raw, %d token) — test is vacuous", disjointSeen, tokDisjointSeen)
	}
}

// Needleman-Wunsch is the documented exception: disjoint alphabets still
// score min/(2·max) > 0, so it must never be behind the signature filter.
func TestSigDoesNotCoverNeedlemanWunsch(t *testing.T) {
	if sim := strsim.NeedlemanWunsch("abc", "xy"); math.Abs(sim-1.0/3.0) > 1e-12 || sim <= 0 {
		t.Fatalf("NW(abc,xy) = %v, want min/(2·max) = 1/3", sim)
	}
}

func TestTokenIndexCandidates(t *testing.T) {
	lists := [][]string{
		{"golden", "dragon"},
		{"blue", "harbor", "harbor"}, // duplicate within a list
		{},                           // token-less entity: never a candidate
		{"dragon", "tavern"},
	}
	ix := NewTokenIndex(lists)
	if ix.Len() != 4 {
		t.Fatalf("Len = %d", ix.Len())
	}
	bits := make([]uint64, (ix.Len()+63)/64)
	var ids, dst []int32
	check := func(query []string, want []int32) {
		t.Helper()
		ids = ix.QueryIDs(query, ids)
		dst = ix.Candidates(ids, bits, dst)
		if len(dst) != len(want) {
			t.Fatalf("Candidates(%v) = %v, want %v", query, dst, want)
		}
		for k := range want {
			if dst[k] != want[k] {
				t.Fatalf("Candidates(%v) = %v, want %v", query, dst, want)
			}
		}
		for _, w := range bits {
			if w != 0 {
				t.Fatal("bitset not cleared")
			}
		}
	}
	check([]string{"dragon"}, []int32{0, 3})
	check([]string{"harbor", "dragon"}, []int32{0, 1, 3})
	check([]string{"unknown"}, nil)
	check(nil, nil)

	// CandidateBits leaves the marks for the caller.
	ids = ix.QueryIDs([]string{"dragon", "golden"}, ids)
	marked := ix.CandidateBits(ids, bits, nil)
	if len(marked) != 2 {
		t.Fatalf("CandidateBits marked %v", marked)
	}
	for _, i := range marked {
		if bits[i>>6]&(1<<(uint(i)&63)) == 0 {
			t.Fatal("mark missing")
		}
		bits[i>>6] &^= 1 << (uint(i) & 63)
	}
}

func TestComparisonsSaturates(t *testing.T) {
	b := Block{V1: make([]int32, 1), V2: make([]int32, 1)}
	if b.Comparisons() != 1 {
		t.Fatalf("Comparisons = %d", b.Comparisons())
	}
	if got := mulSat64(math.MaxInt64/2, 3); got != math.MaxInt64 {
		t.Fatalf("mulSat64 overflowed to %d", got)
	}
	if got := mulSat64(0, math.MaxInt64); got != 0 {
		t.Fatalf("mulSat64(0, max) = %d", got)
	}
}

// Profiles whose attributes are all empty must not produce blocks (in
// particular no empty-key block pairing every such entity).
func TestEmptyAttributeProfilesProduceNoBlocks(t *testing.T) {
	c1 := &dataset.Collection{Name: "a", Profiles: []dataset.Profile{
		{ID: "a0", Attrs: map[string]string{"name": "", "city": ""}},
		{ID: "a1", Attrs: map[string]string{}},
		{ID: "a2", Attrs: map[string]string{"name": "real entity"}},
	}}
	c2 := &dataset.Collection{Name: "b", Profiles: []dataset.Profile{
		{ID: "b0", Attrs: map[string]string{"name": ""}},
		{ID: "b1", Attrs: map[string]string{"name": "real entity"}},
	}}
	for _, blocks := range [][]Block{
		TokenBlocking(c1, c2),
		AttributeBlocking(c1, c2, "name"),
		AttributeBlocking(c1, c2, "missing"),
	} {
		for _, b := range blocks {
			if b.Key == "" {
				t.Fatalf("empty-key block emitted: %+v", b)
			}
			for _, u := range b.V1 {
				if u == 0 || u == 1 {
					t.Fatalf("key-less entity %d appears in block %q", u, b.Key)
				}
			}
		}
	}
	// The real pair must still block together.
	cands := Candidates(TokenBlocking(c1, c2))
	if !hasPair(cands, 2, 1) {
		t.Fatal("token blocking missed the real pair")
	}
}
