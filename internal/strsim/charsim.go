// Package strsim implements the schema-based syntactic similarity measures
// of the paper's Appendix B: seven character-level measures applied to raw
// strings and nine token-level measures applied to word multisets. They
// follow the definitions (and, where the paper defers to it, the
// normalizations) of the Simmetrics package the paper used.
//
// All exported similarity functions return values in [0,1], where 1 means
// identical inputs. Distances are exposed separately where they are useful
// on their own. Strings are compared as sequences of runes, so multi-byte
// text behaves correctly. The string functions are thin wrappers over the
// *Seq rune-slice variants in charseq.go; pairwise kernels precompute the
// rune slices (RunesAll) and call those directly.
package strsim

// Func is a normalized string similarity in [0,1].
type Func func(a, b string) float64

// Levenshtein returns the normalized Levenshtein similarity:
// 1 - dist/max(|a|,|b|).
func Levenshtein(a, b string) float64 {
	return LevenshteinSeq([]rune(a), []rune(b))
}

// DamerauLevenshtein returns the normalized Damerau-Levenshtein
// similarity, which additionally allows transpositions of adjacent
// characters (restricted edit distance).
func DamerauLevenshtein(a, b string) float64 {
	return DamerauLevenshteinSeq([]rune(a), []rune(b))
}

// Jaro returns the Jaro similarity of a and b.
func Jaro(a, b string) float64 {
	return JaroSeq([]rune(a), []rune(b), nil)
}

// Needleman-Wunsch scoring used by the paper (and Simmetrics):
// match 0, mismatch -1, gap -2.
const (
	nwMatch    = 0.0
	nwMismatch = -1.0
	nwGap      = -2.0
)

// NeedlemanWunsch returns the normalized Needleman-Wunsch similarity with
// the paper's scores (match 0, mismatch -1, gap -2): the alignment score
// is rescaled by the worst possible score for the input lengths, giving
// 1 for identical strings and 0 for a worst-case alignment.
func NeedlemanWunsch(a, b string) float64 {
	return NeedlemanWunschSeq([]rune(a), []rune(b))
}

// QGramsDistance returns the q-grams similarity: block (L1) distance over
// padded trigram profiles, normalized by the total number of trigrams
// (1 - dist/total). This is Simmetrics' QGramsDistance with q=3 and
// boundary padding. It is a thin wrapper over QGramIDProfile; callers
// that compare one string against many should precompute the profiles
// over one shared QGramVocab.
func QGramsDistance(a, b string) float64 {
	v := NewQGramVocab()
	return v.Profile(a, 3).Distance(v.Profile(b, 3))
}

// LongestCommonSubstring returns |lcsstr(a,b)| / max(|a|,|b|).
func LongestCommonSubstring(a, b string) float64 {
	return LongestCommonSubstringSeq([]rune(a), []rune(b))
}

// LongestCommonSubsequence returns |lcsseq(a,b)| / max(|a|,|b|).
func LongestCommonSubsequence(a, b string) float64 {
	return LongestCommonSubsequenceSeq([]rune(a), []rune(b))
}

// Smith-Waterman scoring used as the Monge-Elkan secondary measure
// (Simmetrics defaults): match +1, mismatch -2, gap -0.5.
const (
	swMatch    = 1.0
	swMismatch = -2.0
	swGap      = -0.5
)

// SmithWaterman returns the normalized Smith-Waterman local alignment
// similarity: best local alignment score divided by min(|a|,|b|) (the
// maximum achievable score).
func SmithWaterman(a, b string) float64 {
	return SmithWatermanSeq([]rune(a), []rune(b), nil)
}

func normDist(dist, la, lb int) float64 {
	m := max2(la, lb)
	if m == 0 {
		return 1
	}
	return 1 - float64(dist)/float64(m)
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min3(a, b, c int) int { return min2(min2(a, b), c) }
