package strsim

import (
	"math"
	"strings"
	"testing"
)

// Native fuzz targets: the similarity measures are exposed to arbitrary
// attribute values, so they must never panic, never leave [0,1], and
// respect their metric-like contracts on any input.

func clip(s string) string {
	s = strings.ToValidUTF8(s, "")
	if len(s) > 64 {
		s = s[:64] // DP measures are quadratic
	}
	return s
}

func FuzzAllMeasures(f *testing.F) {
	f.Add("golden dragon", "golden dragon bistro")
	f.Add("", "x")
	f.Add("ab", "ba")
	f.Add("café au lait", "cafe du monde")
	f.Add("\xff\xfe", "ok")
	measures := AllMeasures()
	f.Fuzz(func(t *testing.T, a, b string) {
		a, b = clip(a), clip(b)
		for name, m := range measures {
			s := m(a, b)
			if math.IsNaN(s) || s < -1e-9 || s > 1+1e-9 {
				t.Fatalf("%s(%q,%q) = %v", name, a, b, s)
			}
			if self := m(a, a); math.Abs(self-1) > 1e-9 {
				t.Fatalf("%s(%q,%q) = %v, want 1", name, a, a, self)
			}
		}
	})
}

func FuzzLevenshteinMetric(f *testing.F) {
	f.Add("kitten", "sitting", "mitten")
	f.Add("", "", "")
	f.Fuzz(func(t *testing.T, a, b, c string) {
		a, b, c = clip(a), clip(b), clip(c)
		ab := LevenshteinDistance(a, b)
		ba := LevenshteinDistance(b, a)
		if ab != ba {
			t.Fatalf("not symmetric: %d vs %d", ab, ba)
		}
		if ab < 0 {
			t.Fatalf("negative distance %d", ab)
		}
		if (ab == 0) != (a == b) {
			t.Fatalf("identity of indiscernibles broken for %q,%q", a, b)
		}
		if ac, bc := LevenshteinDistance(a, c), LevenshteinDistance(b, c); ac > ab+bc {
			t.Fatalf("triangle inequality broken: %d > %d + %d", ac, ab, bc)
		}
	})
}

// clipLong keeps fuzz inputs valid UTF-8 but allows them well past the
// 64-rune machine-word boundary, so the multi-word bit-parallel kernels
// and the Damerau scalar fallback are fuzzed too (quadratic cost is
// bounded by the 256-byte cap).
func clipLong(s string) string {
	s = strings.ToValidUTF8(s, "")
	if len(s) > 256 {
		s = s[:256]
		s = strings.ToValidUTF8(s, "")
	}
	return s
}

// FuzzBitparVsScalar pins every bit-parallel / automaton / scratch
// kernel against the retained scalar DP references on arbitrary unicode
// input, including empty strings and patterns crossing the 64-rune
// word boundary.
func FuzzBitparVsScalar(f *testing.F) {
	f.Add("golden dragon", "golden dragon bistro")
	f.Add("", "")
	f.Add("", "x")
	f.Add("ab", "ba")
	f.Add("café au lait", "cafe du monde")
	f.Add(strings.Repeat("abcdefg", 12), strings.Repeat("abcdfeg", 12)) // > 64 runes both sides
	f.Add(strings.Repeat("日本語", 30), "日本")
	f.Add("\xff\xfe", "ok")
	f.Fuzz(func(t *testing.T, a, b string) {
		a, b = clipLong(a), clipLong(b)
		ra, rb := []rune(a), []rune(b)
		p := NewCharProfile(a)
		scratch := NewCharScratch()
		if got, want := p.LevenshteinDistance(rb, scratch), LevenshteinDistanceSeq(ra, rb); got != want {
			t.Fatalf("LevenshteinDistance(%q,%q) = %d, scalar %d", a, b, got, want)
		}
		if got, want := p.DamerauLevenshteinDistance(rb, scratch), DamerauLevenshteinDistanceSeq(ra, rb, nil); got != want {
			t.Fatalf("DamerauLevenshteinDistance(%q,%q) = %d, scalar %d", a, b, got, want)
		}
		if got, want := p.LongestCommonSubsequence(rb, scratch), LongestCommonSubsequenceSeq(ra, rb); got != want {
			t.Fatalf("LongestCommonSubsequence(%q,%q) = %v, scalar %v", a, b, got, want)
		}
		if got, want := p.LongestCommonSubstring(rb), LongestCommonSubstringSeq(ra, rb); got != want {
			t.Fatalf("LongestCommonSubstring(%q,%q) = %v, scalar %v", a, b, got, want)
		}
		if got, want := JaroSeq(ra, rb, scratch), JaroSeq(ra, rb, nil); got != want {
			t.Fatalf("JaroSeq(%q,%q) over scratch = %v, without %v", a, b, got, want)
		}
		if got, want := SmithWatermanSeq(ra, rb, scratch), refSmithWatermanSeq(ra, rb); got != want {
			t.Fatalf("SmithWatermanSeq(%q,%q) = %v, reference %v", a, b, got, want)
		}
		if got, want := p.NeedlemanWunsch(rb), NeedlemanWunschSeq(ra, rb); got != want {
			t.Fatalf("bitpar NeedlemanWunsch(%q,%q) = %v, scalar %v", a, b, got, want)
		}
		if got, want := JaroSeqBitpar(ra, rb, NewJaroTable(rb), scratch), JaroSeq(ra, rb, nil); got != want {
			t.Fatalf("JaroSeqBitpar(%q,%q) = %v, scalar %v", a, b, got, want)
		}
	})
}

func FuzzTokenize(f *testing.F) {
	f.Add("Hello, World! 42")
	f.Add("\x00\xff mixed\tbytes")
	f.Fuzz(func(t *testing.T, s string) {
		for _, tok := range Tokenize(s) {
			if tok == "" {
				t.Fatal("empty token")
			}
			if tok != strings.ToLower(tok) {
				t.Fatalf("token %q not lower-cased", tok)
			}
		}
	})
}
