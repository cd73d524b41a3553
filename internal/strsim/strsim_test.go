package strsim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want float64, name string) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("%s = %v, want %v", name, got, want)
	}
}

func TestLevenshteinDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"abc", "abc", 0},
		{"ab", "ba", 2}, // transposition costs 2 without Damerau
		{"café", "cafe", 1},
	}
	for _, c := range cases {
		if got := LevenshteinDistanceSeq([]rune(c.a), []rune(c.b)); got != c.want {
			t.Errorf("LevenshteinDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDamerauLevenshteinDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"ab", "ba", 1},
		{"abcd", "acbd", 1},
		{"ca", "abc", 3}, // restricted DL cannot do better here
		{"kitten", "sitting", 3},
		{"", "xy", 2},
	}
	for _, c := range cases {
		if got := DamerauLevenshteinDistanceSeq([]rune(c.a), []rune(c.b), nil); got != c.want {
			t.Errorf("DamerauLevenshteinDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestJaroKnownValues(t *testing.T) {
	// Classic reference values.
	approx(t, Jaro("MARTHA", "MARHTA"), 0.944444444444444, "Jaro(MARTHA,MARHTA)")
	approx(t, Jaro("DIXON", "DICKSONX"), 0.766666666666667, "Jaro(DIXON,DICKSONX)")
	approx(t, Jaro("", ""), 1, "Jaro empty")
	approx(t, Jaro("a", ""), 0, "Jaro one empty")
	approx(t, Jaro("abc", "xyz"), 0, "Jaro disjoint")
}

func TestNeedlemanWunsch(t *testing.T) {
	approx(t, NeedlemanWunsch("abc", "abc"), 1, "NW identical")
	approx(t, NeedlemanWunsch("", ""), 1, "NW empty")
	// Mismatching everything: cost 3 over 2*3 = 0.5.
	approx(t, NeedlemanWunsch("abc", "xyz"), 0.5, "NW disjoint")
	if s := NeedlemanWunsch("abcdef", "abcdeg"); s <= 0.5 || s >= 1 {
		t.Fatalf("NW near-identical = %v, want in (0.5, 1)", s)
	}
}

func TestQGrams(t *testing.T) {
	approx(t, QGramsDistance("abc", "abc"), 1, "qgrams identical")
	approx(t, QGramsDistance("", ""), 1, "qgrams empty")
	if s := QGramsDistance("abcde", "abcdf"); s <= 0 || s >= 1 {
		t.Fatalf("qgrams near = %v, want in (0,1)", s)
	}
	if s := QGramsDistance("aaaa", "zzzz"); s != 0 {
		t.Fatalf("qgrams disjoint = %v, want 0", s)
	}
}

func TestLongestCommon(t *testing.T) {
	approx(t, LongestCommonSubstring("abcdef", "zabcy"), 3.0/6.0, "LCSubstring")
	approx(t, LongestCommonSubsequence("abcdef", "acf"), 3.0/6.0, "LCSubsequence")
	approx(t, LongestCommonSubstring("", ""), 1, "LCSubstring empty")
	approx(t, LongestCommonSubsequence("ab", ""), 0, "LCSubsequence one empty")
	// Subsequence is at least as permissive as substring.
	if LongestCommonSubsequence("axbycz", "abc") < LongestCommonSubstring("axbycz", "abc") {
		t.Fatal("subsequence < substring")
	}
}

func TestSmithWaterman(t *testing.T) {
	approx(t, SmithWaterman("abc", "abc"), 1, "SW identical")
	approx(t, SmithWaterman("xxabcx", "yabcy"), 3.0/5.0, "SW local match")
	approx(t, SmithWaterman("", "x"), 0, "SW empty")
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Hello,  World! 42-x")
	want := []string{"hello", "world", "42", "x"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Tokenize = %v, want %v", got, want)
		}
	}
}

func TestTokenMeasuresKnownValues(t *testing.T) {
	a := []string{"joe", "biden", "president"}
	b := []string{"joe", "biden"}
	approx(t, Jaccard(a, b), 2.0/3.0, "Jaccard")
	approx(t, Dice(a, b), 4.0/5.0, "Dice")
	approx(t, OverlapCoefficient(a, b), 1, "Overlap")
	approx(t, CosineTokens(a, b), 2/(math.Sqrt(3)*math.Sqrt(2)), "Cosine")
	approx(t, BlockDistance(a, b), 1-1.0/5.0, "Block")
	approx(t, GeneralizedJaccard(a, b), 2.0/3.0, "GenJaccard")
	approx(t, SimonWhite(a, b), 4.0/5.0, "SimonWhite")
}

func TestMultisetVsSetMeasures(t *testing.T) {
	a := []string{"x", "x", "y"}
	b := []string{"x", "y"}
	// Set-based: identical sets.
	approx(t, Jaccard(a, b), 1, "Jaccard multiset collapse")
	approx(t, Dice(a, b), 1, "Dice multiset collapse")
	// Multiset-based measures see the extra "x".
	approx(t, GeneralizedJaccard(a, b), 2.0/3.0, "GenJaccard multiset")
	approx(t, SimonWhite(a, b), 4.0/5.0, "SimonWhite multiset")
}

func TestMongeElkan(t *testing.T) {
	a := []string{"peter", "christen"}
	b := []string{"christian", "pedro"}
	me := MongeElkan(a, b)
	if me <= 0 || me > 1 {
		t.Fatalf("MongeElkan = %v, want in (0,1]", me)
	}
	approx(t, MongeElkan(a, a), 1, "MongeElkan identical")
}

func TestRegistries(t *testing.T) {
	if n := len(CharMeasures()); n != 7 {
		t.Fatalf("CharMeasures: %d, want 7", n)
	}
	if n := len(TokenMeasures()); n != 9 {
		t.Fatalf("TokenMeasures: %d, want 9", n)
	}
	if n := len(AllMeasures()); n != 16 {
		t.Fatalf("AllMeasures: %d, want 16 (the paper's schema-based set)", n)
	}
}

// Every measure must be in [0,1], symmetric where defined to be, and give
// 1 for identical inputs.
func TestPropertyMeasureContracts(t *testing.T) {
	symmetric := map[string]bool{
		"Levenshtein": true, "DamerauLevenshtein": true, "Jaro": true,
		"NeedlemanWunsch": true, "QGramsDistance": true,
		"LongestCommonSubstr": true, "LongestCommonSubseq": true,
		"Cosine": true, "BlockDistance": true, "Dice": true,
		"SimonWhite": true, "OverlapCoefficient": true, "Euclidean": true,
		"Jaccard": true, "GeneralizedJaccard": true,
		"MongeElkan": false, // asymmetric by definition
	}
	measures := AllMeasures()
	f := func(a, b string) bool {
		// Keep inputs modest: DP measures are quadratic.
		if len(a) > 40 {
			a = a[:40]
		}
		if len(b) > 40 {
			b = b[:40]
		}
		a, b = strings.ToValidUTF8(a, ""), strings.ToValidUTF8(b, "")
		for name, m := range measures {
			sab := m(a, b)
			if sab < -1e-9 || sab > 1+1e-9 || math.IsNaN(sab) {
				t.Logf("%s(%q,%q) = %v out of range", name, a, b, sab)
				return false
			}
			if saa := m(a, a); math.Abs(saa-1) > 1e-9 {
				t.Logf("%s(%q,%q) = %v, want 1", name, a, a, saa)
				return false
			}
			if symmetric[name] {
				if sba := m(b, a); math.Abs(sab-sba) > 1e-9 {
					t.Logf("%s not symmetric on (%q,%q): %v vs %v", name, a, b, sab, sba)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Edit-distance triangle inequality.
func TestPropertyLevenshteinTriangle(t *testing.T) {
	f := func(a, b, c string) bool {
		if len(a) > 25 {
			a = a[:25]
		}
		if len(b) > 25 {
			b = b[:25]
		}
		if len(c) > 25 {
			c = c[:25]
		}
		a = strings.ToValidUTF8(a, "")
		b = strings.ToValidUTF8(b, "")
		c = strings.ToValidUTF8(c, "")
		ab := LevenshteinDistanceSeq([]rune(a), []rune(b))
		bc := LevenshteinDistanceSeq([]rune(b), []rune(c))
		ac := LevenshteinDistanceSeq([]rune(a), []rune(c))
		return ac <= ab+bc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Damerau-Levenshtein never exceeds Levenshtein.
func TestPropertyDamerauAtMostLevenshtein(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 25 {
			a = a[:25]
		}
		if len(b) > 25 {
			b = b[:25]
		}
		a = strings.ToValidUTF8(a, "")
		b = strings.ToValidUTF8(b, "")
		return DamerauLevenshteinDistanceSeq([]rune(a), []rune(b), nil) <= LevenshteinDistanceSeq([]rune(a), []rune(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
