package strsim

// Bit-parallel kernels for the two character measures that stayed scalar
// after the Myers/Hyyrö/Allison-Dix rewrite: Needleman-Wunsch with the
// paper's scoring (match 0, mismatch -1, gap -2) and Jaro's windowed
// match scan. Both keep their scalar implementations here, as the string
// API's bodies, the pinned references (FuzzBitparVsScalar) and the
// fallback for inputs longer than one machine word.
//
// Needleman-Wunsch. In cost form (substitution 1, gap 2) the DP
//
//	D(i,j) = min(D(i-1,j-1) + neq, D(i-1,j) + 2, D(i,j-1) + 2)
//
// has the diagonal property D(i-1,j-1) <= D(i,j) <= D(i-1,j-1)+1: the
// upper bound is the substitution edge, and the lower bound follows by
// induction because each of the three candidates dominates D(i-1,j-1)
// (e.g. D(i-1,j)+2 >= D(i-1,j-1) since inserting text[j] raises the cost
// of the (i-1,j-1) prefix by at most 2). So the diagonal step
// d(i,j) = D(i,j) - D(i-1,j-1) is a BIT, and it is 0 exactly when
//
//	pattern[i] == text[j]  OR  V(i,j-1) = -2  OR  H(i-1,j) = -2,
//
// with V(i,j) = D(i,j)-D(i-1,j) in [-2,2] and H(i,j) = D(i,j)-D(i,j-1)
// in [-2,2] (each candidate reaches -2 only when the corresponding
// neighbour already sits 2 below the diagonal origin). H(i-1,j) = -2
// unfolds to d(i-1,j)=0 AND V(i-1,j-1)=+2, which couples row i to row
// i-1 — a carry chain, solved in O(1) word operations per text rune by
// the same adder trick Myers uses. The remaining updates are pure
// relabelings of the one-hot encoded vertical differences:
//
//	H(i,j) = d(i,j) - V(i,j-1)        (same row, element-wise)
//	V(i,j) = d(i,j) - H(i-1,j)        (shift H up one row, boundary +2)
//
// and the running score D(m,j) accumulates H(m,j) read off the top bit.
//
// Jaro. The scalar scan assigns, for each pattern rune in order, the
// first not-yet-matched text position inside the window that holds an
// equal rune. With the text's PEQ table that assignment is one word
// operation: candidates = peq(c) & window & available, take the lowest
// set bit. The transposition count then walks the two match masks.

import "math/bits"

// NeedlemanWunschSeq is NeedlemanWunsch over rune slices.
func NeedlemanWunschSeq(ra, rb []rune) float64 {
	maxLen := max2(len(ra), len(rb))
	if maxLen == 0 {
		return 1
	}
	// nwScore is the (non-positive) maximum alignment score; its negation
	// is the minimum alignment cost, which never exceeds 2*maxLen because
	// mismatching everything costs at most that. This is Simmetrics'
	// normalization: 1 - cost / (maxLen * |gap|).
	return 1 + nwScore(ra, rb)/(-nwGap*float64(maxLen))
}

func nwScore(ra, rb []rune) float64 {
	var b1, b2 [stackRows + 1]float64
	var prev, cur []float64
	if len(rb) <= stackRows {
		prev, cur = b1[:len(rb)+1], b2[:len(rb)+1]
	} else {
		prev, cur = make([]float64, len(rb)+1), make([]float64, len(rb)+1)
	}
	for j := 1; j <= len(rb); j++ {
		prev[j] = float64(j) * nwGap
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = float64(i) * nwGap
		for j := 1; j <= len(rb); j++ {
			sub := nwMismatch
			if ra[i-1] == rb[j-1] {
				sub = nwMatch
			}
			best := prev[j-1] + sub
			if v := prev[j] + nwGap; v > best {
				best = v
			}
			if v := cur[j-1] + nwGap; v > best {
				best = v
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// nwScoreBitpar computes nwScore (the Needleman-Wunsch alignment score,
// an integer always <= 0) for a pattern of m <= 64 runes via the
// difference-encoded bit-parallel DP above, streaming the text through
// the pattern's PEQ table in O(|text|) word operations.
func nwScoreBitpar(peq *peqSingle, m int, text []rune) int {
	// One-hot vertical differences V(i, j-1) over pattern rows; rows are
	// bits 0..m-1, V = 0 is the implied complement. Bits >= m never
	// influence lower bits (shifts and adder carries only move upward),
	// so the vectors run at full word width like the Myers kernels.
	var vm2, vm1, vp1 uint64
	vp2 := ^uint64(0) // D(i,0) = 2i: the initial column's V is +2 everywhere
	top := uint64(1) << uint(m-1)
	dist := 2 * m // D(m, 0)
	for _, c := range text {
		eq := peq.eq(c)
		v0 := ^(vm2 | vm1 | vp1 | vp2)
		// d(i,j)=0 generate and propagate: G from an equal rune or
		// V(i,j-1)=-2; the H(i-1,j)=-2 condition propagates a zero from
		// row i-1 to row i wherever V(i-1,j-1)=+2.
		g := eq | vm2
		p := vp2 << 1
		t := (g << 1) & p
		z := (((t + p) ^ p) & p) | t | g
		d1 := ^z // rows where d(i,j) = 1
		// H(i,j) = d(i,j) - V(i,j-1), element-wise on the one-hot masks.
		// (d=1, V=-2) and (d=0 after H=-2 carry, V=...) combinations that
		// would leave [-2,2] are impossible: V=-2 forces d=0.
		hp2 := (d1 & vm1) | (z & vm2)
		hp1 := (d1 & v0) | (z & vm1)
		h0 := (d1 & vp1) | (z & v0)
		hm1 := (d1 & vp2) | (z & vp1)
		hm2 := z & vp2
		switch {
		case hp2&top != 0:
			dist += 2
		case hp1&top != 0:
			dist++
		case hm1&top != 0:
			dist--
		case hm2&top != 0:
			dist -= 2
		}
		// V(i,j) = d(i,j) - H(i-1,j): shift H up one row; the boundary
		// row contributes H(0,j) = +2 (the top row D(0,j) = 2j).
		shp2 := hp2<<1 | 1
		shp1 := hp1 << 1
		sh0 := h0 << 1
		shm1 := hm1 << 1
		shm2 := hm2 << 1
		vp2 = (d1 & shm1) | (z & shm2)
		vp1 = (d1 & sh0) | (z & shm1)
		vm1 = (d1 & shp2) | (z & shp1)
		vm2 = z & shp2
	}
	return -dist
}

// NeedlemanWunsch is NeedlemanWunschSeq(p.Runes(), rb) through the
// bit-parallel kernel for patterns of <= 64 runes; longer patterns fall
// back to the scalar DP.
func (p *CharProfile) NeedlemanWunsch(rb []rune) float64 {
	m := len(p.runes)
	if p.peq1 == nil || len(rb) == 0 {
		return NeedlemanWunschSeq(p.runes, rb)
	}
	return 1 + float64(nwScoreBitpar(p.peq1, m, rb))/(-nwGap*float64(max2(m, len(rb))))
}

// JaroTable is the PEQ match-bitmask table of the RIGHT side of a Jaro
// comparison (Jaro scans the left string and consumes positions of the
// right one, so the bit dimension is the right string). It is built once
// per entity and reused against every left string; nil peq means the
// string is longer than 64 runes and comparisons fall back to the scalar
// scan.
type JaroTable struct {
	peq *peqSingle
	n   int
}

// NewJaroTable builds the Jaro match table of rb.
func NewJaroTable(rb []rune) *JaroTable {
	t := &JaroTable{n: len(rb)}
	if len(rb) > 0 && len(rb) <= 64 {
		t.peq = newPeqSingle(rb)
	}
	return t
}

// JaroTableAll builds one table per rune sequence.
func JaroTableAll(seqs [][]rune) []*JaroTable {
	out := make([]*JaroTable, len(seqs))
	for i, rb := range seqs {
		out[i] = NewJaroTable(rb)
	}
	return out
}

// maskThrough returns the bits 0..k set (k >= 0; k >= 63 saturates to a
// full word).
func maskThrough(k int) uint64 {
	if k >= 63 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(k+1) - 1
}

// JaroSeq is Jaro over rune slices. Match flags longer than the stack
// buffers come from scratch, which may be nil.
func JaroSeq(ra, rb []rune, scratch *CharScratch) float64 {
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	window := max2(len(ra), len(rb))/2 - 1
	if window < 0 {
		window = 0
	}
	var ba, bb [stackRows]bool
	var matchA, matchB []bool
	switch {
	case len(ra) <= stackRows && len(rb) <= stackRows:
		matchA, matchB = ba[:len(ra)], bb[:len(rb)]
	case scratch != nil:
		matchA, matchB = scratch.flag(0, len(ra)), scratch.flag(1, len(rb))
	default:
		matchA, matchB = make([]bool, len(ra)), make([]bool, len(rb))
	}
	matches := 0
	for i := range ra {
		lo := max2(0, i-window)
		hi := min2(len(rb)-1, i+window)
		for j := lo; j <= hi; j++ {
			if !matchB[j] && ra[i] == rb[j] {
				matchA[i], matchB[j] = true, true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions among matched characters.
	transpositions := 0
	j := 0
	for i := range ra {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(len(ra)) + m/float64(len(rb)) + (m-t)/m) / 3
}

// JaroSeqBitpar is JaroSeq(ra, rb, scratch) with the windowed match scan
// replaced by one PEQ lookup per left rune when both strings fit a
// machine word. tb must be the table of rb; scratch backs the scalar
// fallback for longer inputs and may be nil.
func JaroSeqBitpar(ra, rb []rune, tb *JaroTable, scratch *CharScratch) float64 {
	if len(ra) == 0 || len(rb) == 0 || len(ra) > 64 || tb == nil || tb.peq == nil {
		return JaroSeq(ra, rb, scratch)
	}
	n := len(rb)
	window := max2(len(ra), n)/2 - 1
	if window < 0 {
		window = 0
	}
	avail := maskThrough(n - 1)
	full := avail
	var matchedA uint64
	matches := 0
	for i, c := range ra {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window
		if hi > n-1 {
			hi = n - 1
		}
		if lo > hi {
			continue
		}
		span := maskThrough(hi)
		if lo > 0 {
			span &^= maskThrough(lo - 1)
		}
		// The scalar scan takes the FIRST unmatched equal position in the
		// window — the lowest set candidate bit.
		cand := tb.peq.eq(c) & span & avail
		if cand != 0 {
			avail &^= cand & -cand
			matchedA |= uint64(1) << uint(i)
			matches++
		}
	}
	if matches == 0 {
		return 0
	}
	matchedB := full &^ avail
	transpositions := 0
	mb := matchedB
	for ma := matchedA; ma != 0; ma &= ma - 1 {
		i := bits.TrailingZeros64(ma)
		j := bits.TrailingZeros64(mb)
		mb &= mb - 1
		if ra[i] != rb[j] {
			transpositions++
		}
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(len(ra)) + m/float64(n) + (m-t)/m) / 3
}
