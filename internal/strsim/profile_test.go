package strsim

import (
	"math"
	"math/rand"
	"testing"
)

// Reference implementations: the historical map[string]int token
// measures, kept here verbatim so the profile-based merge joins can be
// proven bit-identical against them.

func refCounts(tokens []string) map[string]int {
	m := make(map[string]int, len(tokens))
	for _, t := range tokens {
		m[t]++
	}
	return m
}

func refCosine(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	ca, cb := refCounts(a), refCounts(b)
	dot, na, nb := 0.0, 0.0, 0.0
	for t, x := range ca {
		na += float64(x) * float64(x)
		if y, ok := cb[t]; ok {
			dot += float64(x) * float64(y)
		}
	}
	for _, y := range cb {
		nb += float64(y) * float64(y)
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

func refBlockDistance(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	ca, cb := refCounts(a), refCounts(b)
	dist := 0
	for t, x := range ca {
		d := x - cb[t]
		if d < 0 {
			d = -d
		}
		dist += d
	}
	for t, y := range cb {
		if _, ok := ca[t]; !ok {
			dist += y
		}
	}
	return 1 - float64(dist)/float64(len(a)+len(b))
}

func refEuclidean(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	ca, cb := refCounts(a), refCounts(b)
	sq, na, nb := 0.0, 0.0, 0.0
	for t, x := range ca {
		d := float64(x - cb[t])
		sq += d * d
		na += float64(x) * float64(x)
	}
	for t, y := range cb {
		if _, ok := ca[t]; !ok {
			sq += float64(y) * float64(y)
		}
		nb += float64(y) * float64(y)
	}
	maxD := math.Sqrt(na + nb)
	if maxD == 0 {
		return 1
	}
	return 1 - math.Sqrt(sq)/maxD
}

func refJaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	ca, cb := refCounts(a), refCounts(b)
	inter := 0
	for t := range ca {
		if _, ok := cb[t]; ok {
			inter++
		}
	}
	union := len(ca) + len(cb) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

func refGeneralizedJaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	ca, cb := refCounts(a), refCounts(b)
	minSum, maxSum := 0, 0
	for t, x := range ca {
		y := cb[t]
		minSum += min2(x, y)
		maxSum += max2(x, y)
	}
	for t, y := range cb {
		if _, ok := ca[t]; !ok {
			maxSum += y
		}
	}
	if maxSum == 0 {
		return 1
	}
	return float64(minSum) / float64(maxSum)
}

func refDice(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	ca, cb := refCounts(a), refCounts(b)
	inter := 0
	for t := range ca {
		if _, ok := cb[t]; ok {
			inter++
		}
	}
	den := len(ca) + len(cb)
	if den == 0 {
		return 1
	}
	return 2 * float64(inter) / float64(den)
}

func refSimonWhite(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	ca, cb := refCounts(a), refCounts(b)
	inter := 0
	for t, x := range ca {
		inter += min2(x, cb[t])
	}
	den := len(a) + len(b)
	if den == 0 {
		return 1
	}
	return 2 * float64(inter) / float64(den)
}

func refOverlap(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	ca, cb := refCounts(a), refCounts(b)
	inter := 0
	for t := range ca {
		if _, ok := cb[t]; ok {
			inter++
		}
	}
	return float64(inter) / float64(min2(len(ca), len(cb)))
}

func refMongeElkan(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	sum := 0.0
	for _, wa := range a {
		best := 0.0
		for _, wb := range b {
			if s := SmithWaterman(wa, wb); s > best {
				best = s
			}
		}
		sum += best
	}
	return sum / float64(len(a))
}

func refQGrams(a, b string) float64 {
	profile := func(s string, q int) map[string]int {
		if s == "" {
			return nil
		}
		pad := ""
		for i := 0; i < q-1; i++ {
			pad += "#"
		}
		padded := []rune(pad + s + pad)
		p := make(map[string]int)
		for i := 0; i+q <= len(padded); i++ {
			p[string(padded[i:i+q])]++
		}
		return p
	}
	pa, pb := profile(a, 3), profile(b, 3)
	total, dist := 0, 0
	for g, ca := range pa {
		cb := pb[g]
		d := ca - cb
		if d < 0 {
			d = -d
		}
		dist += d
		total += ca + cb
	}
	for g, cb := range pb {
		if _, seen := pa[g]; !seen {
			dist += cb
			total += cb
		}
	}
	if total == 0 {
		return 1
	}
	return 1 - float64(dist)/float64(total)
}

// randomTokens draws token lists with heavy duplication so intersections,
// multiset counts and empty cases are all exercised.
func randomTokens(rng *rand.Rand) []string {
	vocab := []string{"alpha", "beta", "gamma", "delta", "x1", "model", "pro", "2024", "éclair", "a"}
	n := rng.Intn(8)
	out := make([]string, n)
	for i := range out {
		out[i] = vocab[rng.Intn(len(vocab))]
	}
	return out
}

func TestProfileMeasuresBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	refs := []struct {
		name string
		ref  func(a, b []string) float64
		got  func(a, b []string) float64
	}{
		{"Cosine", refCosine, CosineTokens},
		{"BlockDistance", refBlockDistance, BlockDistance},
		{"Euclidean", refEuclidean, EuclideanTokens},
		{"Jaccard", refJaccard, Jaccard},
		{"GeneralizedJaccard", refGeneralizedJaccard, GeneralizedJaccard},
		{"Dice", refDice, Dice},
		{"SimonWhite", refSimonWhite, SimonWhite},
		{"Overlap", refOverlap, OverlapCoefficient},
		{"MongeElkan", refMongeElkan, MongeElkan},
	}
	for trial := 0; trial < 500; trial++ {
		a, b := randomTokens(rng), randomTokens(rng)
		for _, m := range refs {
			want, got := m.ref(a, b), m.got(a, b)
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("%s(%v, %v) = %v, reference %v", m.name, a, b, got, want)
			}
		}
	}
}

func TestTokenSimsMatchesStandaloneMeasures(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	standalone := []func(a, b []string) float64{
		CosineTokens, BlockDistance, Dice, SimonWhite, OverlapCoefficient,
		EuclideanTokens, Jaccard, GeneralizedJaccard, MongeElkan,
	}
	cache := NewSWCache()
	for trial := 0; trial < 300; trial++ {
		a, b := randomTokens(rng), randomTokens(rng)
		pa, pb := NewTokenProfile(a), NewTokenProfile(b)
		sims := TokenSims(pa, pb, 1<<9-1, cache)
		for k, f := range standalone {
			if want := f(a, b); math.Float64bits(want) != math.Float64bits(sims[k]) {
				t.Fatalf("TokenSims[%d](%v, %v) = %v, standalone %v", k, a, b, sims[k], want)
			}
			// Selecting one measure computes it alone and leaves the
			// other slots 0.
			one := TokenSims(pa, pb, 1<<k, cache)
			for j, sim := range one {
				want := 0.0
				if j == k {
					want = sims[k]
				}
				if math.Float64bits(sim) != math.Float64bits(want) {
					t.Fatalf("TokenSims(%v, %v, 1<<%d)[%d] = %v, want %v", a, b, k, j, sim, want)
				}
			}
		}
	}
}

func TestQGramProfileBitIdentical(t *testing.T) {
	cases := []string{"", "a", "ab", "abc", "abcdef", "ααβγ", "hello world", "hhh"}
	for _, a := range cases {
		for _, b := range cases {
			want := refQGrams(a, b)
			got := QGramsDistance(a, b)
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("QGramsDistance(%q, %q) = %v, reference %v", a, b, got, want)
			}
		}
	}
}

func TestSWCacheConsistency(t *testing.T) {
	c := NewSWCache()
	a, b := []string{"galaxy", "note"}, []string{"galaxy", "notes", "pro"}
	pa, pb := NewTokenProfile(a), NewTokenProfile(b)
	first := pa.MongeElkan(pb, c)
	second := pa.MongeElkan(pb, c) // served from the memo
	uncached := pa.MongeElkan(pb, nil)
	if first != second || first != uncached {
		t.Fatalf("memoized MongeElkan diverged: %v / %v / %v", first, second, uncached)
	}
}

// TestQGramIDProfileMatchesStringProfile pins the interned-id q-gram
// distance, over one vocabulary shared by all texts, bit-for-bit against
// the string-gram map profile of refQGrams.
func TestQGramIDProfileMatchesStringProfile(t *testing.T) {
	texts := []string{
		"", "a", "ab", "abc", "golden dragon bistro", "harbor grill",
		"日本語 カフェ", "###", "aaaa", "Éclair café", "x#y",
	}
	vocab := NewQGramVocab()
	idProfs := make([]*QGramIDProfile, len(texts))
	for i, s := range texts {
		idProfs[i] = vocab.Profile(s, 3)
	}
	for i := range texts {
		for j := range texts {
			got := idProfs[i].Distance(idProfs[j])
			want := refQGrams(texts[i], texts[j])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Distance(%q,%q) = %v, string profile %v", texts[i], texts[j], got, want)
			}
		}
	}
}
