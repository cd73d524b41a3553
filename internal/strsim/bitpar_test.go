package strsim

import (
	"math/rand"
	"strings"
	"testing"
)

// The bit-parallel kernels and the suffix automaton must agree with the
// scalar DP references on every input: exhaustively over short
// small-alphabet pairs (where every recurrence corner — transposition
// chains, runs of matches, empty prefixes — occurs), and randomly over
// longer unicode strings crossing the 64-rune word boundary where the
// blocked kernels and the Damerau fallback take over.

// refSmithWatermanSeq is the float64 Smith-Waterman DP, retained
// verbatim as the reference for the integer-scaled SmithWatermanSeq.
func refSmithWatermanSeq(ra, rb []rune) float64 {
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	prev := make([]float64, len(rb)+1)
	cur := make([]float64, len(rb)+1)
	best := 0.0
	for i := 1; i <= len(ra); i++ {
		for j := 1; j <= len(rb); j++ {
			sub := swMismatch
			if ra[i-1] == rb[j-1] {
				sub = swMatch
			}
			v := prev[j-1] + sub
			if w := prev[j] + swGap; w > v {
				v = w
			}
			if w := cur[j-1] + swGap; w > v {
				v = w
			}
			if v < 0 {
				v = 0
			}
			cur[j] = v
			if v > best {
				best = v
			}
		}
		prev, cur = cur, prev
	}
	return best / float64(min2(len(ra), len(rb))) / swMatch
}

// checkProfileAgreement pins every CharProfile kernel, and every scalar
// body run over scratch rows, against the scalar references for one
// (a, b) pair.
func checkProfileAgreement(t *testing.T, a, b string) {
	t.Helper()
	ra, rb := []rune(a), []rune(b)
	p := NewCharProfile(a)
	scratch := NewCharScratch()

	if got, want := p.LevenshteinDistance(rb, scratch), LevenshteinDistanceSeq(ra, rb); got != want {
		t.Fatalf("LevenshteinDistance(%q,%q) = %d, scalar %d", a, b, got, want)
	}
	if got, want := p.Levenshtein(rb, scratch), LevenshteinSeq(ra, rb); got != want {
		t.Fatalf("Levenshtein(%q,%q) = %v, scalar %v", a, b, got, want)
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
		t.Fatalf("SmithWatermanSeq(%q,%q) over scratch = %v, reference %v", a, b, got, want)
	}
	if got, want := SmithWatermanSeq(ra, rb, nil), refSmithWatermanSeq(ra, rb); got != want {
		t.Fatalf("SmithWatermanSeq(%q,%q) = %v, reference %v", a, b, got, want)
	}
	if got, want := p.NeedlemanWunsch(rb), NeedlemanWunschSeq(ra, rb); got != want {
		t.Fatalf("bitpar NeedlemanWunsch(%q,%q) = %v, scalar %v", a, b, got, want)
	}
	if got, want := JaroSeqBitpar(ra, rb, NewJaroTable(rb), scratch), JaroSeq(ra, rb, nil); got != want {
		t.Fatalf("JaroSeqBitpar(%q,%q) = %v, scalar %v", a, b, got, want)
	}
}

// enumerate all strings over alphabet of length up to maxLen.
func enumerate(alphabet string, maxLen int) []string {
	out := []string{""}
	frontier := []string{""}
	for l := 1; l <= maxLen; l++ {
		var next []string
		for _, s := range frontier {
			for _, c := range alphabet {
				next = append(next, s+string(c))
			}
		}
		out = append(out, next...)
		frontier = next
	}
	return out
}

func TestBitparExhaustiveSmall(t *testing.T) {
	// Binary alphabet up to length 5 hits every branch combination of
	// the recurrences (3^2·… cell neighborhoods, transposition chains).
	words := enumerate("ab", 5)
	for _, a := range words {
		for _, b := range words {
			checkProfileAgreement(t, a, b)
		}
	}
	// Ternary alphabet up to length 4 adds mismatch/transposition mixes
	// a binary alphabet cannot produce.
	words = enumerate("abc", 4)
	for _, a := range words {
		for _, b := range words {
			checkProfileAgreement(t, a, b)
		}
	}
}

func randomWord(rng *rand.Rand, alphabet []rune, maxLen int) string {
	n := rng.Intn(maxLen + 1)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteRune(alphabet[rng.Intn(len(alphabet))])
	}
	return sb.String()
}

func TestBitparRandomAroundWordBoundary(t *testing.T) {
	// Lengths 0..150 cross the 64-rune single-word limit in every
	// combination (short/short, short/long, long/long), exercising the
	// blocked Myers and LCS kernels and the Damerau scalar fallback,
	// with non-ASCII runes forcing the PEQ map path.
	rng := rand.New(rand.NewSource(7))
	alphabet := append([]rune("abcdefgh \u00e9\u00fc\u65e5\u672c\u8a9e"), ' ', '2')
	for iter := 0; iter < 400; iter++ {
		a := randomWord(rng, alphabet, 150)
		b := randomWord(rng, alphabet, 150)
		checkProfileAgreement(t, a, b)
	}
}

func TestBitparBoundaryLengths(t *testing.T) {
	// Exact word-boundary pattern lengths (63, 64, 65, 127, 128, 129)
	// against texts of assorted lengths, plus empties on both sides.
	rng := rand.New(rand.NewSource(11))
	alphabet := []rune("abcd")
	for _, m := range []int{0, 1, 2, 63, 64, 65, 127, 128, 129} {
		pa := make([]rune, m)
		for i := range pa {
			pa[i] = alphabet[rng.Intn(len(alphabet))]
		}
		a := string(pa)
		for _, n := range []int{0, 1, 5, 63, 64, 65, 130} {
			pb := make([]rune, n)
			for i := range pb {
				pb[i] = alphabet[rng.Intn(len(alphabet))]
			}
			checkProfileAgreement(t, a, string(pb))
		}
	}
}

func TestCharProfileSelfSimilarity(t *testing.T) {
	for _, s := range []string{"", "a", "golden dragon", strings.Repeat("xyzzy", 30), "café 日本"} {
		p := NewCharProfile(s)
		rb := []rune(s)
		if s != "" {
			if d := p.LevenshteinDistance(rb, nil); d != 0 {
				t.Fatalf("self Levenshtein distance %d", d)
			}
			if sim := p.LongestCommonSubstring(rb); sim != 1 {
				t.Fatalf("self LCSubstring %v", sim)
			}
		}
		if sim := p.LongestCommonSubsequence(rb, nil); sim != 1 {
			t.Fatalf("self LCSubsequence %v", sim)
		}
	}
}

// The same profile must be usable from many goroutines with distinct
// scratches (the row-kernel access pattern); run under -race.
func TestCharProfileConcurrentReaders(t *testing.T) {
	p := NewCharProfile(strings.Repeat("entity resolution über alles ", 4))
	texts := []string{"entity", strings.Repeat("resolution", 20), "", "über alles"}
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func() {
			scratch := NewCharScratch()
			for iter := 0; iter < 50; iter++ {
				for _, txt := range texts {
					rb := []rune(txt)
					if got, want := p.LevenshteinDistance(rb, scratch), LevenshteinDistanceSeq(p.Runes(), rb); got != want {
						done <- errMismatch{got, want}
						return
					}
					p.LongestCommonSubstring(rb)
					p.LongestCommonSubsequence(rb, scratch)
					p.DamerauLevenshteinDistance(rb, scratch)
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type errMismatch [2]int

func (e errMismatch) Error() string { return "concurrent kernel mismatch" }
