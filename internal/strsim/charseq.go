package strsim

// Rune-sequence variants of the character-level measures. The string
// API converts per call; pairwise kernels that compare one entity
// against many precompute the rune slices once and call these directly.
// Each measure has one scalar body: the dynamic programs of the measures
// with a bit-parallel kernel sit beside that kernel (bitpar.go,
// bitparalign.go), the rest are here. DP working rows live on the stack
// for typical attribute-value lengths (≤ 64 runes), so a pair comparison
// allocates nothing; longer rows come from a per-worker CharScratch when
// the caller passes one.

// stackRows is the rune length up to which DP rows fit the stack
// buffers of the scalar bodies.
const stackRows = 64

// intRows returns two DP rows of n ints: on the stack-backed buffers for
// n ≤ stackRows+1, else from scratch, else freshly allocated.
func intRows(b1, b2 *[stackRows + 1]int, n int, scratch *CharScratch) (prev, cur []int) {
	switch {
	case n <= stackRows+1:
		return b1[:n], b2[:n]
	case scratch != nil:
		return scratch.row(0, n), scratch.row(1, n)
	default:
		return make([]int, n), make([]int, n)
	}
}

// LongestCommonSubstringSeq is LongestCommonSubstring over rune slices.
func LongestCommonSubstringSeq(ra, rb []rune) float64 {
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	var b1, b2 [stackRows + 1]int
	prev, cur := intRows(&b1, &b2, len(rb)+1, nil)
	best := 0
	for i := 1; i <= len(ra); i++ {
		for j := 1; j <= len(rb); j++ {
			if ra[i-1] == rb[j-1] {
				cur[j] = prev[j-1] + 1
				if cur[j] > best {
					best = cur[j]
				}
			} else {
				cur[j] = 0
			}
		}
		prev, cur = cur, prev
	}
	return float64(best) / float64(max2(len(ra), len(rb)))
}

// SmithWatermanSeq is SmithWaterman over rune slices. The DP runs in
// integers with cells scaled by 2, so the gap penalty -0.5 becomes -1;
// every cell of the float recurrence is a multiple of ½ and exactly
// representable, so the halved best score is bit-identical to it.
// scratch may be nil.
func SmithWatermanSeq(ra, rb []rune, scratch *CharScratch) float64 {
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	var b1, b2 [stackRows + 1]int
	prev, cur := intRows(&b1, &b2, len(rb)+1, scratch)
	const gap2, mismatch2, match2 = -1, -4, 2 // 2×(swGap, swMismatch, swMatch)
	for j := range prev {
		prev[j] = 0
	}
	best := 0
	for i := 1; i <= len(ra); i++ {
		cur[0] = 0
		for j := 1; j <= len(rb); j++ {
			sub := mismatch2
			if ra[i-1] == rb[j-1] {
				sub = match2
			}
			v := prev[j-1] + sub
			if w := prev[j] + gap2; w > v {
				v = w
			}
			if w := cur[j-1] + gap2; w > v {
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
	return float64(best) / 2 / float64(min2(len(ra), len(rb))) / swMatch
}

// RunesAll converts each string to its rune slice, the precomputed form
// the *Seq measures consume.
func RunesAll(texts []string) [][]rune {
	out := make([][]rune, len(texts))
	for i, t := range texts {
		out[i] = []rune(t)
	}
	return out
}
