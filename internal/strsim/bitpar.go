package strsim

// Bit-parallel character-measure kernels and the scalar dynamic
// programs they replace. The kernels compute the same integer results
// as the DPs — Levenshtein distance (Myers' bit-vector algorithm),
// restricted Damerau-Levenshtein distance (Hyyrö's transposition
// extension) and LCS length (the Allison-Dix / Crochemore bit-vector
// recurrence) — in O(⌈m/64⌉·n) word operations instead of O(m·n) cell
// updates. Because the measures' normalizations divide an integer by a
// length, equal integers mean bit-identical similarities; the scalar DPs
// below are the string API's bodies, the reference implementations, and
// the Damerau fallback for patterns longer than 64 runes, and the
// fuzz/property suite pins the two implementations against each other.
//
// All kernels are one-vs-many: the pattern-side state (the PEQ match
// bitmasks, built by CharProfile) is constructed once per left entity
// and every right string streams through it, which is where the row
// kernels in internal/simgraph get their amortization.

import "math/bits"

// LevenshteinSeq is Levenshtein over pre-converted rune slices.
func LevenshteinSeq(ra, rb []rune) float64 {
	return normDist(LevenshteinDistanceSeq(ra, rb), len(ra), len(rb))
}

// LevenshteinDistanceSeq returns the minimum number of insertions,
// deletions and substitutions transforming ra into rb.
func LevenshteinDistanceSeq(ra, rb []rune) int {
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	var b1, b2 [stackRows + 1]int
	prev, cur := intRows(&b1, &b2, len(rb)+1, nil)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// DamerauLevenshteinSeq is DamerauLevenshtein over rune slices.
func DamerauLevenshteinSeq(ra, rb []rune) float64 {
	return normDist(DamerauLevenshteinDistanceSeq(ra, rb, nil), len(ra), len(rb))
}

// DamerauLevenshteinDistanceSeq returns the restricted
// Damerau-Levenshtein edit distance (insert, delete, substitute,
// transpose adjacent) of ra and rb. Rows longer than the stack buffers
// come from scratch, which may be nil.
func DamerauLevenshteinDistanceSeq(ra, rb []rune, scratch *CharScratch) int {
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	width := len(rb) + 1
	var b1, b2, b3 [stackRows + 1]int
	prev, cur := intRows(&b1, &b2, width, scratch)
	var two []int
	switch {
	case width <= stackRows+1:
		two = b3[:width]
	case scratch != nil:
		two = scratch.row(2, width)
	default:
		two = make([]int, width)
	}
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
			if i > 1 && j > 1 && ra[i-1] == rb[j-2] && ra[i-2] == rb[j-1] {
				if v := two[j-2] + 1; v < cur[j] {
					cur[j] = v
				}
			}
		}
		two, prev, cur = prev, cur, two
	}
	return prev[len(rb)]
}

// LongestCommonSubsequenceSeq is LongestCommonSubsequence over rune
// slices.
func LongestCommonSubsequenceSeq(ra, rb []rune) float64 {
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	var b1, b2 [stackRows + 1]int
	prev, cur := intRows(&b1, &b2, len(rb)+1, nil)
	for i := 1; i <= len(ra); i++ {
		for j := 1; j <= len(rb); j++ {
			if ra[i-1] == rb[j-1] {
				cur[j] = prev[j-1] + 1
			} else if prev[j] >= cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return float64(prev[len(rb)]) / float64(max2(len(ra), len(rb)))
}

// peqSingle is the match-bitmask table of a pattern of at most 64 runes:
// bit i of peq(c) is set iff pattern[i] == c. ASCII runes index a flat
// array; anything else falls back to a (usually tiny) map.
type peqSingle struct {
	ascii [128]uint64
	ext   map[rune]uint64 // nil when the pattern is pure ASCII
}

func newPeqSingle(pattern []rune) *peqSingle {
	p := &peqSingle{}
	for i, c := range pattern {
		bit := uint64(1) << uint(i)
		if c >= 0 && c < 128 {
			p.ascii[c] |= bit
		} else {
			if p.ext == nil {
				p.ext = make(map[rune]uint64)
			}
			p.ext[c] |= bit
		}
	}
	return p
}

func (p *peqSingle) eq(c rune) uint64 {
	if c >= 0 && c < 128 {
		return p.ascii[c]
	}
	return p.ext[c] // nil map yields 0
}

// peqBlocks is peqSingle for patterns longer than 64 runes: w =
// ⌈m/64⌉ words per rune, ASCII flattened into one slice.
type peqBlocks struct {
	w     int
	ascii []uint64 // 128*w words, rune c at [c*w : c*w+w]
	ext   map[rune][]uint64
	zero  []uint64 // shared all-zero row for runes absent from the pattern
}

func newPeqBlocks(pattern []rune, w int) *peqBlocks {
	p := &peqBlocks{w: w, ascii: make([]uint64, 128*w), zero: make([]uint64, w)}
	for i, c := range pattern {
		word, bit := i/64, uint64(1)<<uint(i%64)
		if c >= 0 && c < 128 {
			p.ascii[int(c)*w+word] |= bit
		} else {
			if p.ext == nil {
				p.ext = make(map[rune][]uint64)
			}
			row := p.ext[c]
			if row == nil {
				row = make([]uint64, w)
				p.ext[c] = row
			}
			row[word] |= bit
		}
	}
	return p
}

func (p *peqBlocks) eq(c rune) []uint64 {
	if c >= 0 && c < 128 {
		return p.ascii[int(c)*p.w : int(c)*p.w+p.w]
	}
	if row := p.ext[c]; row != nil {
		return row
	}
	return p.zero
}

// levDistSingle is Myers' bit-vector Levenshtein distance for a pattern
// of m ≤ 64 runes against an arbitrary-length text. Bits at positions
// ≥ m never influence bits below them (carries and shifts only move
// upward), so the vectors run at full word width and only the score bit
// at position m-1 is read.
func levDistSingle(peq *peqSingle, m int, text []rune) int {
	pv, mv := ^uint64(0), uint64(0)
	score := m
	top := uint64(1) << uint(m-1)
	for _, c := range text {
		eq := peq.eq(c)
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&top != 0 {
			score++
		} else if mh&top != 0 {
			score--
		}
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	return score
}

// advanceBlock runs one Myers column step on one 64-bit block of the
// pattern. hin is the horizontal delta entering the block from below
// (+1, 0 or -1); the returned hout is the delta leaving its top bit.
func advanceBlock(pv, mv, eq uint64, hin int) (pvOut, mvOut uint64, hout int) {
	xv := eq | mv
	if hin < 0 {
		eq |= 1
	}
	xh := (((eq & pv) + pv) ^ pv) | eq
	ph := mv | ^(xh | pv)
	mh := pv & xh
	switch {
	case ph>>63 != 0:
		hout = 1
	case mh>>63 != 0:
		hout = -1
	}
	ph <<= 1
	mh <<= 1
	if hin > 0 {
		ph |= 1
	} else if hin < 0 {
		mh |= 1
	}
	pvOut = mh | ^(xv | ph)
	mvOut = ph & xv
	return pvOut, mvOut, hout
}

// levDistBlocks is the multi-word Myers kernel for patterns longer than
// 64 runes. pv and mv are caller-provided scratch of ⌈m/64⌉ words each.
func levDistBlocks(peq *peqBlocks, m int, text []rune, pv, mv []uint64) int {
	w := peq.w
	for b := 0; b < w; b++ {
		pv[b] = ^uint64(0)
		mv[b] = 0
	}
	score := m
	last := w - 1
	top := uint64(1) << uint((m-1)%64)
	for _, c := range text {
		eq := peq.eq(c)
		hin := 1 // D[0][j] = j: a +1 delta enters the bottom block
		for b := 0; b < last; b++ {
			pv[b], mv[b], hin = advanceBlock(pv[b], mv[b], eq[b], hin)
		}
		// Last block: the score lives at bit (m-1)%64, not at bit 63,
		// so the delta is read there instead of chaining further up.
		pvb, mvb := pv[last], mv[last]
		eqb := eq[last]
		xv := eqb | mvb
		if hin < 0 {
			eqb |= 1
		}
		xh := (((eqb & pvb) + pvb) ^ pvb) | eqb
		ph := mvb | ^(xh | pvb)
		mh := pvb & xh
		if ph&top != 0 {
			score++
		} else if mh&top != 0 {
			score--
		}
		ph <<= 1
		mh <<= 1
		if hin > 0 {
			ph |= 1
		} else if hin < 0 {
			mh |= 1
		}
		pv[last] = mh | ^(xv | ph)
		mv[last] = ph & xv
	}
	return score
}

// damerauDistSingle is Hyyrö's bit-vector restricted Damerau-Levenshtein
// distance for a pattern of m ≤ 64 runes: Myers' recurrence extended
// with a transposition term that matches pattern[i-1..i] against
// text[j] text[j-1] where the previous column's diagonal step was free.
func damerauDistSingle(peq *peqSingle, m int, text []rune) int {
	pv, mv := ^uint64(0), uint64(0)
	var d0, pmPrev uint64
	score := m
	top := uint64(1) << uint(m-1)
	for _, c := range text {
		pm := peq.eq(c)
		d0 = (((^d0) & pm) << 1) & pmPrev
		d0 |= (((pm & pv) + pv) ^ pv) | pm | mv
		ph := mv | ^(d0 | pv)
		mh := pv & d0
		if ph&top != 0 {
			score++
		} else if mh&top != 0 {
			score--
		}
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(d0 | ph)
		mv = ph & d0
		pmPrev = pm
	}
	return score
}

// lcsLenSingle is the bit-vector LCS length for a pattern of m ≤ 64
// runes: ones in v mark rows whose LCS value did not increase; each text
// rune clears at most one new bit per run of matches.
func lcsLenSingle(peq *peqSingle, m int, text []rune) int {
	v := ^uint64(0)
	for _, c := range text {
		match := peq.eq(c)
		u := v & match
		v = (v + u) | (v &^ match)
	}
	mask := ^uint64(0)
	if m < 64 {
		mask = (uint64(1) << uint(m)) - 1
	}
	return m - bits.OnesCount64(v&mask)
}

// lcsLenBlocks is lcsLenSingle for patterns longer than 64 runes; the
// addition's carry chains across blocks. v is caller scratch of
// ⌈m/64⌉ words.
func lcsLenBlocks(peq *peqBlocks, m int, text []rune, v []uint64) int {
	w := peq.w
	for b := 0; b < w; b++ {
		v[b] = ^uint64(0)
	}
	for _, c := range text {
		match := peq.eq(c)
		var carry uint64
		for b := 0; b < w; b++ {
			vb := v[b]
			sum, c1 := bits.Add64(vb, vb&match[b], carry)
			carry = c1
			v[b] = sum | (vb &^ match[b])
		}
	}
	zeros := 0
	for b := 0; b < w-1; b++ {
		zeros += 64 - bits.OnesCount64(v[b])
	}
	rem := m - (w-1)*64
	mask := ^uint64(0)
	if rem < 64 {
		mask = (uint64(1) << uint(rem)) - 1
	}
	zeros += rem - bits.OnesCount64(v[w-1]&mask)
	return zeros
}
