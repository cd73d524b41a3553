package strsim

import (
	"slices"
	"sort"
)

// CharProfile is the precomputed one-vs-many form of a string for the
// character-level measures, built once per entity and streamed against
// many opponents: the rune slice, the PEQ match-bitmask tables feeding
// the bit-parallel Levenshtein / Damerau-Levenshtein / LCS kernels in
// bitpar.go, and a suffix automaton for longest-common-substring
// scans. Every method is bit-identical to the corresponding scalar
// *Seq measure on (p.Runes(), rb) — the integer kernels produce equal
// integers and the normalizations are shared — which the fuzz suite
// pins.
//
// A profile is immutable after construction and safe for concurrent
// readers; the mutable per-call state lives in CharScratch, one per
// worker.
type CharProfile struct {
	runes []rune

	// Bit-parallel pattern state: single-word for ≤ 64 runes, blocked
	// otherwise (Damerau falls back to the scalar DP in the blocked
	// case).
	peq1 *peqSingle
	peqW *peqBlocks
	// sam is the suffix automaton over runes; nil for the empty string.
	sam *suffixAutomaton
}

// NewCharProfile builds the character profile of text.
func NewCharProfile(text string) *CharProfile {
	p := &CharProfile{runes: []rune(text)}
	m := len(p.runes)
	if m == 0 {
		return p
	}
	if m <= 64 {
		p.peq1 = newPeqSingle(p.runes)
	} else {
		p.peqW = newPeqBlocks(p.runes, (m+63)/64)
	}
	p.sam = newSuffixAutomaton(p.runes)
	return p
}

// CharProfileAll builds one profile per text.
func CharProfileAll(texts []string) []*CharProfile {
	out := make([]*CharProfile, len(texts))
	for i, t := range texts {
		out[i] = NewCharProfile(t)
	}
	return out
}

// Runes returns the profiled rune sequence. Callers must not modify it.
func (p *CharProfile) Runes() []rune { return p.runes }

// CharScratch is the reusable per-worker state of the character
// kernels: block vectors for the multi-word bit-parallel paths, integer
// DP rows for the scalar ones (Damerau fallback, Smith-Waterman) and
// Jaro's match flags. Values never survive a call; a scratch must not be
// shared between goroutines.
type CharScratch struct {
	blocks [3][]uint64
	rows   [3][]int
	flags  [2][]bool
}

// NewCharScratch returns an empty scratch; slices grow on demand.
func NewCharScratch() *CharScratch { return &CharScratch{} }

func (s *CharScratch) block(k, n int) []uint64 {
	if cap(s.blocks[k]) < n {
		s.blocks[k] = make([]uint64, n)
	}
	return s.blocks[k][:n]
}

func (s *CharScratch) row(k, n int) []int {
	if cap(s.rows[k]) < n {
		s.rows[k] = make([]int, n)
	}
	return s.rows[k][:n]
}

func (s *CharScratch) flag(k, n int) []bool {
	if cap(s.flags[k]) < n {
		s.flags[k] = make([]bool, n)
	}
	f := s.flags[k][:n]
	for i := range f {
		f[i] = false
	}
	return f
}

// LevenshteinDistance is LevenshteinDistanceSeq(p.Runes(), rb) through
// the bit-parallel kernels. scratch may be nil for patterns ≤ 64 runes.
func (p *CharProfile) LevenshteinDistance(rb []rune, scratch *CharScratch) int {
	m := len(p.runes)
	if m == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return m
	}
	if p.peq1 != nil {
		return levDistSingle(p.peq1, m, rb)
	}
	if scratch == nil {
		scratch = NewCharScratch()
	}
	w := p.peqW.w
	return levDistBlocks(p.peqW, m, rb, scratch.block(0, w), scratch.block(1, w))
}

// Levenshtein is LevenshteinSeq(p.Runes(), rb).
func (p *CharProfile) Levenshtein(rb []rune, scratch *CharScratch) float64 {
	return normDist(p.LevenshteinDistance(rb, scratch), len(p.runes), len(rb))
}

// DamerauLevenshteinDistance is DamerauLevenshteinDistanceSeq(p.Runes(),
// rb): bit-parallel for patterns ≤ 64 runes, the scalar DP otherwise.
func (p *CharProfile) DamerauLevenshteinDistance(rb []rune, scratch *CharScratch) int {
	m := len(p.runes)
	if m == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return m
	}
	if p.peq1 != nil {
		return damerauDistSingle(p.peq1, m, rb)
	}
	return DamerauLevenshteinDistanceSeq(p.runes, rb, scratch)
}

// DamerauLevenshtein is DamerauLevenshteinSeq(p.Runes(), rb).
func (p *CharProfile) DamerauLevenshtein(rb []rune, scratch *CharScratch) float64 {
	return normDist(p.DamerauLevenshteinDistance(rb, scratch), len(p.runes), len(rb))
}

// LongestCommonSubsequence is LongestCommonSubsequenceSeq(p.Runes(), rb).
func (p *CharProfile) LongestCommonSubsequence(rb []rune, scratch *CharScratch) float64 {
	m := len(p.runes)
	if m == 0 && len(rb) == 0 {
		return 1
	}
	if m == 0 || len(rb) == 0 {
		return 0
	}
	var l int
	if p.peq1 != nil {
		l = lcsLenSingle(p.peq1, m, rb)
	} else {
		if scratch == nil {
			scratch = NewCharScratch()
		}
		l = lcsLenBlocks(p.peqW, m, rb, scratch.block(0, p.peqW.w))
	}
	return float64(l) / float64(max2(m, len(rb)))
}

// LongestCommonSubstring is LongestCommonSubstringSeq(p.Runes(), rb),
// streaming rb through the pattern's suffix automaton in O(|rb|) steps.
func (p *CharProfile) LongestCommonSubstring(rb []rune) float64 {
	m := len(p.runes)
	if m == 0 && len(rb) == 0 {
		return 1
	}
	if m == 0 || len(rb) == 0 {
		return 0
	}
	return float64(p.sam.longestMatch(rb)) / float64(max2(m, len(rb)))
}

// suffixAutomaton is the suffix automaton of a rune sequence with
// transitions flattened into sorted CSR arrays: state s's out-edges are
// trRune/trTo[trOff[s]:trOff[s+1]], sorted by rune for binary search.
// Matching a text against it yields, at each text position, the length
// of the longest substring of the pattern ending there.
type suffixAutomaton struct {
	maxLen []int32
	link   []int32
	trOff  []int32
	trRune []rune
	trTo   []int32
}

// samState is the construction-time form of one automaton state.
type samState struct {
	next     map[rune]int32
	link     int32
	maxLen   int32
	firstKey rune // fast path: most states have exactly one transition
	firstTo  int32
	nKeys    int
}

func newSuffixAutomaton(text []rune) *suffixAutomaton {
	states := make([]samState, 1, 2*len(text))
	states[0] = samState{link: -1}
	last := int32(0)
	get := func(s int32, c rune) (int32, bool) {
		st := &states[s]
		if st.nKeys == 1 {
			if st.firstKey == c {
				return st.firstTo, true
			}
			return 0, false
		}
		if st.next == nil {
			return 0, false
		}
		to, ok := st.next[c]
		return to, ok
	}
	set := func(s int32, c rune, to int32) {
		st := &states[s]
		switch {
		case st.nKeys == 0:
			st.firstKey, st.firstTo, st.nKeys = c, to, 1
		case st.nKeys == 1 && st.next == nil:
			if st.firstKey == c {
				st.firstTo = to
				return
			}
			st.next = map[rune]int32{st.firstKey: st.firstTo, c: to}
			st.nKeys = 2
		default:
			if _, ok := st.next[c]; !ok {
				st.nKeys++
			}
			st.next[c] = to
		}
	}
	for _, c := range text {
		cur := int32(len(states))
		states = append(states, samState{maxLen: states[last].maxLen + 1, link: -1})
		p := last
		for p != -1 {
			if _, ok := get(p, c); ok {
				break
			}
			set(p, c, cur)
			p = states[p].link
		}
		if p == -1 {
			states[cur].link = 0
		} else {
			q, _ := get(p, c)
			if states[p].maxLen+1 == states[q].maxLen {
				states[cur].link = q
			} else {
				clone := int32(len(states))
				qs := states[q]
				cl := samState{maxLen: states[p].maxLen + 1, link: qs.link,
					firstKey: qs.firstKey, firstTo: qs.firstTo, nKeys: qs.nKeys}
				if qs.next != nil {
					cl.next = make(map[rune]int32, len(qs.next))
					for k, v := range qs.next {
						cl.next[k] = v
					}
				}
				states = append(states, cl)
				for p != -1 {
					if to, ok := get(p, c); ok && to == q {
						set(p, c, clone)
						p = states[p].link
					} else {
						break
					}
				}
				states[q].link = clone
				states[cur].link = clone
			}
		}
		last = cur
	}

	// Flatten to CSR with per-state rune-sorted transitions.
	a := &suffixAutomaton{
		maxLen: make([]int32, len(states)),
		link:   make([]int32, len(states)),
		trOff:  make([]int32, len(states)+1),
	}
	total := 0
	for i := range states {
		a.maxLen[i] = states[i].maxLen
		a.link[i] = states[i].link
		total += states[i].nKeys
	}
	a.trRune = make([]rune, 0, total)
	a.trTo = make([]int32, 0, total)
	var keys []rune
	for i := range states {
		a.trOff[i] = int32(len(a.trRune))
		st := &states[i]
		if st.next == nil {
			if st.nKeys == 1 {
				a.trRune = append(a.trRune, st.firstKey)
				a.trTo = append(a.trTo, st.firstTo)
			}
			continue
		}
		keys = keys[:0]
		for k := range st.next {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			a.trRune = append(a.trRune, k)
			a.trTo = append(a.trTo, st.next[k])
		}
	}
	a.trOff[len(states)] = int32(len(a.trRune))
	return a
}

// step returns the transition from state s on rune c, or -1.
func (a *suffixAutomaton) step(s int32, c rune) int32 {
	lo, hi := a.trOff[s], a.trOff[s+1]
	if hi-lo <= 4 {
		for k := lo; k < hi; k++ {
			if a.trRune[k] == c {
				return a.trTo[k]
			}
		}
		return -1
	}
	runes := a.trRune[lo:hi]
	k := sort.Search(len(runes), func(i int) bool { return runes[i] >= c })
	if k < len(runes) && runes[k] == c {
		return a.trTo[int(lo)+k]
	}
	return -1
}

// longestMatch returns the length of the longest common substring of
// the automaton's pattern and text.
func (a *suffixAutomaton) longestMatch(text []rune) int {
	var best, l int32
	cur := int32(0)
	for _, c := range text {
		for {
			if to := a.step(cur, c); to >= 0 {
				cur = to
				l++
				break
			}
			if cur == 0 {
				l = 0
				break
			}
			cur = a.link[cur]
			l = a.maxLen[cur]
		}
		if l > best {
			best = l
		}
	}
	return int(best)
}
