package strsim

import (
	"math"
	"slices"
	"sort"
)

// TokenProfile is a precomputed multiset view of a token sequence: the
// unique tokens in sorted order with their counts, plus the aggregate
// lengths and norms every token measure needs. Building the profile once
// per entity lets all nine token measures run as allocation-free merge
// joins over two sorted profiles instead of rebuilding a map[string]int
// per pair, while producing bit-identical similarities (every
// accumulator a measure folds over is integer-valued, so the summation
// reorder is exact).
//
// The token slice passed to NewTokenProfile is retained (for the
// occurrence-ordered Monge-Elkan walk) and must not be mutated
// afterwards.
type TokenProfile struct {
	raw    []string // original tokens in occurrence order
	rawIdx []int32  // unique-token index of each occurrence
	tokens []string // unique tokens, sorted
	counts []int32  // count per unique token
	sumSq  int64    // Σ count², the squared L2 norm of the count vector
}

// NewTokenProfile builds the profile of a token sequence.
func NewTokenProfile(tokens []string) *TokenProfile {
	p := &TokenProfile{raw: tokens}
	if len(tokens) == 0 {
		return p
	}
	sorted := append([]string(nil), tokens...)
	sort.Strings(sorted)
	p.tokens = sorted[:0]
	p.counts = make([]int32, 0, len(sorted))
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		p.tokens = append(p.tokens, sorted[i])
		c := int64(j - i)
		p.counts = append(p.counts, int32(c))
		p.sumSq += c * c
		i = j
	}
	p.rawIdx = make([]int32, len(tokens))
	for i, t := range tokens {
		p.rawIdx[i] = int32(sort.SearchStrings(p.tokens, t))
	}
	return p
}

// ProfileAll builds one profile per token sequence.
func ProfileAll(tokenLists [][]string) []*TokenProfile {
	out := make([]*TokenProfile, len(tokenLists))
	for i, ts := range tokenLists {
		out[i] = NewTokenProfile(ts)
	}
	return out
}

// Len returns the number of token occurrences (|a| of the measures).
func (p *TokenProfile) Len() int { return len(p.raw) }

// Unique returns the number of distinct tokens.
func (p *TokenProfile) Unique() int { return len(p.tokens) }

// tokenStats are the integer accumulators of one merge join over two
// profiles; every token measure except Monge-Elkan derives from them.
type tokenStats struct {
	inter    int   // distinct shared tokens
	interMin int64 // Σ min(count_a, count_b)
	maxSum   int64 // Σ max(count_a, count_b)
	l1       int64 // Σ |count_a - count_b|
	sq       int64 // Σ (count_a - count_b)²
	dot      int64 // Σ count_a · count_b
}

func (a *TokenProfile) merge(b *TokenProfile) tokenStats {
	var s tokenStats
	i, j := 0, 0
	for i < len(a.tokens) || j < len(b.tokens) {
		var cmp int
		switch {
		case j >= len(b.tokens):
			cmp = -1
		case i >= len(a.tokens):
			cmp = 1
		case a.tokens[i] < b.tokens[j]:
			cmp = -1
		case a.tokens[i] > b.tokens[j]:
			cmp = 1
		}
		switch cmp {
		case -1:
			x := int64(a.counts[i])
			s.maxSum += x
			s.l1 += x
			s.sq += x * x
			i++
		case 1:
			y := int64(b.counts[j])
			s.maxSum += y
			s.l1 += y
			s.sq += y * y
			j++
		default:
			x, y := int64(a.counts[i]), int64(b.counts[j])
			s.inter++
			s.dot += x * y
			if x < y {
				s.interMin += x
				s.maxSum += y
			} else {
				s.interMin += y
				s.maxSum += x
			}
			d := x - y
			if d < 0 {
				d = -d
			}
			s.l1 += d
			s.sq += d * d
			i++
			j++
		}
	}
	return s
}

// The measure formulas below are the bodies of the eight merge-join
// measures, called by TokenSims. Each takes the merge-join accumulators
// plus the two profiles; the both-empty case (every measure returns 1)
// is handled before merging.

func cosineFrom(s tokenStats, a, b *TokenProfile) float64 {
	if a.Len() == 0 || b.Len() == 0 {
		return 0
	}
	return float64(s.dot) / (math.Sqrt(float64(a.sumSq)) * math.Sqrt(float64(b.sumSq)))
}

func blockDistanceFrom(s tokenStats, a, b *TokenProfile) float64 {
	return 1 - float64(s.l1)/float64(a.Len()+b.Len())
}

func euclideanFrom(s tokenStats, a, b *TokenProfile) float64 {
	maxD := math.Sqrt(float64(a.sumSq + b.sumSq))
	if maxD == 0 {
		return 1
	}
	return 1 - math.Sqrt(float64(s.sq))/maxD
}

func jaccardFrom(s tokenStats, a, b *TokenProfile) float64 {
	union := a.Unique() + b.Unique() - s.inter
	if union == 0 {
		return 1
	}
	return float64(s.inter) / float64(union)
}

func generalizedJaccardFrom(s tokenStats, _, _ *TokenProfile) float64 {
	if s.maxSum == 0 {
		return 1
	}
	return float64(s.interMin) / float64(s.maxSum)
}

func diceFrom(s tokenStats, a, b *TokenProfile) float64 {
	den := a.Unique() + b.Unique()
	if den == 0 {
		return 1
	}
	return 2 * float64(s.inter) / float64(den)
}

func simonWhiteFrom(s tokenStats, a, b *TokenProfile) float64 {
	den := a.Len() + b.Len()
	if den == 0 {
		return 1
	}
	return 2 * float64(s.interMin) / float64(den)
}

func overlapFrom(s tokenStats, a, b *TokenProfile) float64 {
	if a.Len() == 0 || b.Len() == 0 {
		return 0
	}
	return float64(s.inter) / float64(min2(a.Unique(), b.Unique()))
}

// bothEmpty reports the degenerate case every measure defines as 1.
func bothEmpty(a, b *TokenProfile) bool { return a.Len() == 0 && b.Len() == 0 }

// SWCache memoizes Smith-Waterman similarities by token pair. Monge-Elkan
// recomputes the same token-pair alignments across many entity pairs, so
// sharing one cache per (attribute, worker) removes most of its DP cost.
// A nil *SWCache is valid and disables memoization. Not safe for
// concurrent use; give each worker its own cache.
type SWCache struct {
	m       map[[2]string]float64
	scratch *CharScratch
}

// NewSWCache returns an empty Smith-Waterman memo table.
func NewSWCache() *SWCache {
	return &SWCache{m: make(map[[2]string]float64), scratch: NewCharScratch()}
}

func (c *SWCache) sim(a, b string) float64 {
	if c == nil {
		return SmithWaterman(a, b)
	}
	k := [2]string{a, b}
	if s, ok := c.m[k]; ok {
		return s
	}
	s := SmithWatermanSeq([]rune(a), []rune(b), c.scratch)
	c.m[k] = s
	return s
}

// MongeElkan is MongeElkan over profiles, memoizing token-pair
// Smith-Waterman scores through cache (which may be nil). The summation
// walks the original token occurrences in order, so the result is
// bit-identical to the string-slice implementation.
func (a *TokenProfile) MongeElkan(b *TokenProfile, cache *SWCache) float64 {
	if a.Len() == 0 && b.Len() == 0 {
		return 1
	}
	if a.Len() == 0 || b.Len() == 0 {
		return 0
	}
	// Best match per unique token of a, computed on demand.
	best := make([]float64, len(a.tokens))
	for i := range best {
		best[i] = -1
	}
	sum := 0.0
	for _, ui := range a.rawIdx {
		if best[ui] < 0 {
			wa := a.tokens[ui]
			v := 0.0
			for _, wb := range b.tokens {
				if s := cache.sim(wa, wb); s > v {
					v = s
				}
			}
			best[ui] = v
		}
		sum += best[ui]
	}
	return sum / float64(a.Len())
}

// TokenSims computes the token measures selected by want for one
// profile pair, in the order used by the similarity-graph corpus:
// Cosine, BlockDistance, Dice, SimonWhite, OverlapCoefficient,
// Euclidean, Jaccard, GeneralizedJaccard, MongeElkan. Bit k of want
// selects the k-th; the others are left 0. The first eight share one
// merge join, and Monge-Elkan's Smith-Waterman alignments run only when
// it is selected. Each value is bit-identical to the corresponding
// standalone measure.
func TokenSims(a, b *TokenProfile, want uint16, cache *SWCache) [9]float64 {
	var out [9]float64
	if bothEmpty(a, b) {
		for k := range out {
			out[k] = 1
		}
	} else {
		if want&0xff != 0 {
			s := a.merge(b)
			out[0] = cosineFrom(s, a, b)
			out[1] = blockDistanceFrom(s, a, b)
			out[2] = diceFrom(s, a, b)
			out[3] = simonWhiteFrom(s, a, b)
			out[4] = overlapFrom(s, a, b)
			out[5] = euclideanFrom(s, a, b)
			out[6] = jaccardFrom(s, a, b)
			out[7] = generalizedJaccardFrom(s, a, b)
		}
		if want&(1<<8) != 0 {
			out[8] = a.MongeElkan(b, cache)
		}
	}
	for k := range out {
		if want&(1<<k) == 0 {
			out[k] = 0
		}
	}
	return out
}

// QGramVocab interns padded q-grams (q <= 4) to dense ids by rune
// window, so profiles compare by integer merge join instead of string
// compares. Interning is not safe for concurrent use; built profiles
// are. Every accumulator of the distance is an integer, so the result
// does not depend on the order ids were assigned in: profiles over any
// shared vocabulary give the same distance.
type QGramVocab struct {
	ids map[[4]rune]int32
}

// NewQGramVocab returns an empty q-gram vocabulary.
func NewQGramVocab() *QGramVocab {
	return &QGramVocab{ids: make(map[[4]rune]int32)}
}

func (v *QGramVocab) id(key [4]rune) int32 {
	id, ok := v.ids[key]
	if !ok {
		id = int32(len(v.ids))
		v.ids[key] = id
	}
	return id
}

// QGramIDProfile is a precomputed padded character q-gram multiset,
// the per-entity representation behind QGramsDistance: interned gram ids
// in sorted order with counts and the total gram count, so the distance
// is an integer merge join instead of two map builds per pair.
type QGramIDProfile struct {
	ids    []int32
	counts []int32
	total  int64
}

// Profile builds the padded q-gram id profile of s (q <= 4; the
// QGramsDistance configuration is q=3 with "#" padding).
func (v *QGramVocab) Profile(s string, q int) *QGramIDProfile {
	p := &QGramIDProfile{}
	if s == "" {
		return p
	}
	r := make([]rune, 0, len(s)+2*(q-1))
	for i := 0; i < q-1; i++ {
		r = append(r, '#')
	}
	r = append(r, []rune(s)...)
	for i := 0; i < q-1; i++ {
		r = append(r, '#')
	}
	ids := make([]int32, 0, len(r)-q+1)
	key := [4]rune{-1, -1, -1, -1}
	for i := 0; i+q <= len(r); i++ {
		copy(key[:q], r[i:i+q])
		ids = append(ids, v.id(key))
	}
	slices.Sort(ids)
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && ids[j] == ids[i] {
			j++
		}
		p.ids = append(p.ids, ids[i])
		p.counts = append(p.counts, int32(j-i))
		p.total += int64(j - i)
		i = j
	}
	return p
}

// Distance returns the q-grams similarity of two id profiles built over
// the same vocabulary, QGramsDistance of the underlying strings.
func (a *QGramIDProfile) Distance(b *QGramIDProfile) float64 {
	var dist int64
	i, j := 0, 0
	for i < len(a.ids) && j < len(b.ids) {
		switch {
		case a.ids[i] < b.ids[j]:
			dist += int64(a.counts[i])
			i++
		case a.ids[i] > b.ids[j]:
			dist += int64(b.counts[j])
			j++
		default:
			d := int64(a.counts[i]) - int64(b.counts[j])
			if d < 0 {
				d = -d
			}
			dist += d
			i++
			j++
		}
	}
	for ; i < len(a.ids); i++ {
		dist += int64(a.counts[i])
	}
	for ; j < len(b.ids); j++ {
		dist += int64(b.counts[j])
	}
	total := a.total + b.total
	if total == 0 {
		return 1
	}
	return 1 - float64(dist)/float64(total)
}
