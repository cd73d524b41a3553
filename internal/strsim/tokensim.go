package strsim

import (
	"strings"
	"unicode"
)

// TokenFunc is a normalized similarity over token multisets.
type TokenFunc func(a, b []string) float64

// Tokenize splits s into lower-cased word tokens on any run of
// non-letter/non-digit characters.
func Tokenize(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// The string-slice token measures are thin wrappers over TokenSims in
// profile.go: each builds the two TokenProfiles and computes its own
// slot, producing bit-identical values to the historical map[string]int
// implementations (every accumulator is integer-valued, so the
// merge-join reorder is exact). Hot paths that compare one entity
// against many should build profiles once and call TokenSims directly.

// tokenSim is the k-th TokenSims measure of two token lists.
func tokenSim(k int, a, b []string) float64 {
	return TokenSims(NewTokenProfile(a), NewTokenProfile(b), 1<<k, nil)[k]
}

// CosineTokens returns the cosine of the angle between the token count
// vectors of a and b.
func CosineTokens(a, b []string) float64 {
	return tokenSim(0, a, b)
}

// BlockDistance returns the normalized L1 (Manhattan) similarity between
// the token count vectors: 1 - ||a-b||₁ / (|a|+|b|).
func BlockDistance(a, b []string) float64 {
	return tokenSim(1, a, b)
}

// EuclideanTokens returns the normalized Euclidean similarity between the
// token count vectors: 1 - ||a-b||₂ / sqrt(||a||₂² + ||b||₂²).
func EuclideanTokens(a, b []string) float64 {
	return tokenSim(5, a, b)
}

// Jaccard returns |A∩B| / |A∪B| over token sets.
func Jaccard(a, b []string) float64 {
	return tokenSim(6, a, b)
}

// GeneralizedJaccard returns Σmin(count) / Σmax(count) over token
// multisets.
func GeneralizedJaccard(a, b []string) float64 {
	return tokenSim(7, a, b)
}

// Dice returns 2|A∩B| / (|A|+|B|) over token sets.
func Dice(a, b []string) float64 {
	return tokenSim(2, a, b)
}

// SimonWhite is Dice over multisets: 2·Σmin(count) / (|a|+|b|).
func SimonWhite(a, b []string) float64 {
	return tokenSim(3, a, b)
}

// OverlapCoefficient returns |A∩B| / min(|A|,|B|) over token sets.
func OverlapCoefficient(a, b []string) float64 {
	return tokenSim(4, a, b)
}

// MongeElkan returns the Monge-Elkan similarity: the average, over tokens
// of a, of the best Smith-Waterman similarity against tokens of b. It is
// asymmetric by definition.
func MongeElkan(a, b []string) float64 {
	return NewTokenProfile(a).MongeElkan(NewTokenProfile(b), nil)
}

// OnTokens lifts a TokenFunc to a string similarity using Tokenize.
func OnTokens(f TokenFunc) Func {
	return func(a, b string) float64 { return f(Tokenize(a), Tokenize(b)) }
}

// CharMeasures returns the paper's seven character-level schema-based
// measures by name.
func CharMeasures() map[string]Func {
	return map[string]Func{
		"Levenshtein":         Levenshtein,
		"DamerauLevenshtein":  DamerauLevenshtein,
		"Jaro":                Jaro,
		"NeedlemanWunsch":     NeedlemanWunsch,
		"QGramsDistance":      QGramsDistance,
		"LongestCommonSubstr": LongestCommonSubstring,
		"LongestCommonSubseq": LongestCommonSubsequence,
	}
}

// TokenMeasures returns the paper's nine token-level schema-based measures
// by name, lifted to string similarities via Tokenize.
func TokenMeasures() map[string]Func {
	return map[string]Func{
		"Cosine":             OnTokens(CosineTokens),
		"BlockDistance":      OnTokens(BlockDistance),
		"Dice":               OnTokens(Dice),
		"SimonWhite":         OnTokens(SimonWhite),
		"OverlapCoefficient": OnTokens(OverlapCoefficient),
		"Euclidean":          OnTokens(EuclideanTokens),
		"Jaccard":            OnTokens(Jaccard),
		"GeneralizedJaccard": OnTokens(GeneralizedJaccard),
		"MongeElkan":         OnTokens(MongeElkan),
	}
}

// AllMeasures returns all sixteen schema-based measures (character- and
// token-level) by name.
func AllMeasures() map[string]Func {
	all := CharMeasures()
	for name, f := range TokenMeasures() {
		all[name] = f
	}
	return all
}
