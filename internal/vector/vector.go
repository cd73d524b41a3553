// Package vector implements the paper's schema-agnostic bag (vector
// space) models: character n-gram (n=2,3,4) and token n-gram (n=1,2,3)
// sparse vectors with TF or TF-IDF weights, compared with ARCS, cosine,
// Jaccard and generalized Jaccard similarities (Appendix B.2.1).
//
// A Space holds the two entity collections of a Clean-Clean ER task in a
// shared vocabulary, keeps per-collection document frequencies (needed by
// ARCS) and a joint IDF (used by the TF-IDF weighted measures), and can
// enumerate all candidate pairs through an inverted index, which is how
// the paper's pipeline produces similarity graphs containing every pair
// with similarity above zero.
package vector

import (
	"fmt"
	"math"
	bits2 "math/bits"
	"slices"
	"sync"

	"github.com/ccer-go/ccer/internal/strsim"
)

// Mode selects a representation model: character or token n-grams of a
// given order.
type Mode struct {
	Char bool
	N    int
}

// String returns e.g. "char3" or "token2".
func (m Mode) String() string {
	kind := "token"
	if m.Char {
		kind = "char"
	}
	return fmt.Sprintf("%s%d", kind, m.N)
}

// Modes returns the paper's six bag representation models: character
// n-grams for n=2,3,4 and token n-grams for n=1,2,3.
func Modes() []Mode {
	return []Mode{
		{Char: true, N: 2}, {Char: true, N: 3}, {Char: true, N: 4},
		{Char: false, N: 1}, {Char: false, N: 2}, {Char: false, N: 3},
	}
}

// Grams extracts the n-grams of text under the mode. Character n-grams
// slide over the raw runes; token n-grams join consecutive lower-cased
// word tokens with a space.
func (m Mode) Grams(text string) []string {
	if m.Char {
		return CharNGrams(text, m.N)
	}
	return TokenNGrams(strsim.Tokenize(text), m.N)
}

// CharNGrams returns the character n-grams of s. Strings shorter than n
// yield the string itself as a single gram, so short values still get a
// representation.
func CharNGrams(s string, n int) []string {
	r := []rune(s)
	if len(r) == 0 {
		return nil
	}
	if len(r) <= n {
		return []string{string(r)}
	}
	grams := make([]string, 0, len(r)-n+1)
	for i := 0; i+n <= len(r); i++ {
		grams = append(grams, string(r[i:i+n]))
	}
	return grams
}

// TokenNGrams returns the token n-grams of the token sequence.
func TokenNGrams(tokens []string, n int) []string {
	if len(tokens) == 0 {
		return nil
	}
	if len(tokens) <= n {
		return []string{join(tokens)}
	}
	grams := make([]string, 0, len(tokens)-n+1)
	for i := 0; i+n <= len(tokens); i++ {
		grams = append(grams, join(tokens[i:i+n]))
	}
	return grams
}

func join(tokens []string) string {
	out := tokens[0]
	for _, t := range tokens[1:] {
		out += " " + t
	}
	return out
}

// Vec is a sparse vector over gram ids, sorted by id.
type Vec struct {
	IDs []int32
	Ws  []float64
}

// Len returns the number of non-zero dimensions.
func (v Vec) Len() int { return len(v.IDs) }

// Norm returns the L2 norm.
func (v Vec) Norm() float64 {
	s := 0.0
	for _, w := range v.Ws {
		s += w * w
	}
	return math.Sqrt(s)
}

// gramInterner assigns dense gram ids in first-occurrence order without
// materializing gram strings: char n-grams (n <= 4) key the rune window
// directly (padded with an impossible rune for the short-string gram),
// token n-grams (n <= 3) key tuples of interned token ids. Both key
// equivalences coincide with string equality of the corresponding gram
// strings, so the assigned ids — and every downstream float summation
// order — are identical to the historical map[string]int32 vocabulary.
// Modes outside those bounds (not produced by Modes()) fall back to
// string keys via Mode.Grams.
type gramInterner struct {
	char  map[[4]rune]int32
	tokID map[string]int32
	tok   map[[3]int32]int32
	str   map[string]int32
	size  int
}

// noRune pads short gram keys; it can never appear in decoded text.
const noRune rune = -1

// emptyTokens distinguishes "pre-tokenized with zero tokens" from "not
// pre-tokenized" (nil) in newSpace.
var emptyTokens = make([]string, 0)

func newGramInterner(mode Mode) *gramInterner {
	in := &gramInterner{}
	switch {
	case mode.Char && mode.N <= 4:
		in.char = make(map[[4]rune]int32)
	case !mode.Char && mode.N <= 3:
		in.tokID = make(map[string]int32)
		in.tok = make(map[[3]int32]int32)
	default:
		in.str = make(map[string]int32)
	}
	return in
}

func (in *gramInterner) internChar(key [4]rune) int32 {
	id, ok := in.char[key]
	if !ok {
		id = int32(in.size)
		in.char[key] = id
		in.size++
	}
	return id
}

func (in *gramInterner) internTok(key [3]int32) int32 {
	id, ok := in.tok[key]
	if !ok {
		id = int32(in.size)
		in.tok[key] = id
		in.size++
	}
	return id
}

func (in *gramInterner) tokenID(tok string) int32 {
	id, ok := in.tokID[tok]
	if !ok {
		id = int32(len(in.tokID))
		in.tokID[tok] = id
	}
	return id
}

func (in *gramInterner) internStr(gram string) int32 {
	id, ok := in.str[gram]
	if !ok {
		id = int32(in.size)
		in.str[gram] = id
		in.size++
	}
	return id
}

// gramIDs appends the text's gram ids under the mode to dst, interning
// new grams. toks, when non-nil, are strsim.Tokenize(text) (token modes
// only); runeBuf is reusable rune scratch. It returns the ids, the
// rune scratch and the token-id scratch for reuse.
func (in *gramInterner) gramIDs(mode Mode, text string, toks []string, dst []int32, runeBuf []rune, tidBuf []int32) ([]int32, []rune, []int32) {
	switch {
	case in.char != nil:
		runeBuf = append(runeBuf[:0], []rune(text)...)
		r := runeBuf
		if len(r) == 0 {
			return dst, runeBuf, tidBuf
		}
		key := [4]rune{noRune, noRune, noRune, noRune}
		if len(r) <= mode.N {
			copy(key[:], r)
			return append(dst, in.internChar(key)), runeBuf, tidBuf
		}
		for i := 0; i+mode.N <= len(r); i++ {
			copy(key[:], r[i:i+mode.N])
			dst = append(dst, in.internChar(key))
		}
		return dst, runeBuf, tidBuf
	case in.tok != nil:
		if toks == nil {
			toks = strsim.Tokenize(text)
		}
		if len(toks) == 0 {
			return dst, runeBuf, tidBuf
		}
		tidBuf = tidBuf[:0]
		for _, tok := range toks {
			tidBuf = append(tidBuf, in.tokenID(tok))
		}
		key := [3]int32{-1, -1, -1}
		if len(tidBuf) <= mode.N {
			copy(key[:], tidBuf)
			return append(dst, in.internTok(key)), runeBuf, tidBuf
		}
		for i := 0; i+mode.N <= len(tidBuf); i++ {
			copy(key[:], tidBuf[i:i+mode.N])
			dst = append(dst, in.internTok(key))
		}
		return dst, runeBuf, tidBuf
	default:
		for _, g := range mode.Grams(text) {
			dst = append(dst, in.internStr(g))
		}
		return dst, runeBuf, tidBuf
	}
}

// Space is the shared vector space of two entity collections under one
// representation model.
type Space struct {
	Mode      Mode
	vocabSize int
	// TF document vectors per collection, indexed by entity.
	docs1, docs2 []Vec
	// Per-collection document frequencies per gram id (for ARCS) and
	// joint IDF over both collections (for TF-IDF weighting).
	df1, df2 []int32
	idf      []float64

	// Memoized per-entity derived representations, built at most once.
	cacheOnce        sync.Once
	tfidf1, tfidf2   []Vec
	tfNorm1, tfNorm2 []float64 // L2 norms of the TF vectors
	wNorm1, wNorm2   []float64 // L2 norms of the TF-IDF vectors
	arcsW            []float64 // per-gram ARCS contribution ln2/log(df1·df2)

	// Memoized inverted index over collection 1 (CSR postings), used by
	// candidate enumeration.
	postOnce sync.Once
	postOff  []int32
	postIDs  []int32
}

// newSpace builds the space from the schema-agnostic texts of the two
// collections (one string per entity). toks1/toks2, when non-nil, must
// be strsim.Tokenize of each entity's text, letting the paper's three
// token models share one tokenization pass; char modes ignore them. The
// space is the same either way.
func newSpace(mode Mode, texts1, texts2 []string, toks1, toks2 [][]string) *Space {
	s := &Space{Mode: mode}
	in := newGramInterner(mode)
	s.docs1 = s.addAll(in, texts1, toks1, &s.df1)
	s.docs2 = s.addAll(in, texts2, toks2, &s.df2)
	s.vocabSize = in.size
	// Pad DFs to the final vocabulary size.
	for len(s.df1) < s.vocabSize {
		s.df1 = append(s.df1, 0)
	}
	for len(s.df2) < s.vocabSize {
		s.df2 = append(s.df2, 0)
	}
	total := len(texts1) + len(texts2)
	s.idf = make([]float64, s.vocabSize)
	for id := range s.idf {
		df := int(s.df1[id] + s.df2[id])
		s.idf[id] = math.Log(float64(total) / float64(df+1))
		if s.idf[id] < 0 {
			s.idf[id] = 0
		}
	}
	return s
}

func (s *Space) addAll(in *gramInterner, texts []string, toks [][]string, df *[]int32) []Vec {
	docs := make([]Vec, len(texts))
	var ids []int32 // reusable per-entity gram-id scratch
	var runeBuf []rune
	var tidBuf []int32
	for i, text := range texts {
		var entToks []string
		if toks != nil {
			entToks = toks[i]
			if entToks == nil {
				entToks = emptyTokens // pre-tokenized as token-less: do not re-tokenize
			}
		}
		ids, runeBuf, tidBuf = in.gramIDs(s.Mode, text, entToks, ids[:0], runeBuf, tidBuf)
		// Sort + run-length encode instead of a per-entity count map.
		norm := float64(len(ids))
		slices.Sort(ids)
		v := Vec{}
		for k := 0; k < len(ids); {
			j := k + 1
			for j < len(ids) && ids[j] == ids[k] {
				j++
			}
			id := ids[k]
			v.IDs = append(v.IDs, id)
			v.Ws = append(v.Ws, float64(j-k)/norm) // normalized TF
			for int(id) >= len(*df) {
				*df = append(*df, 0)
			}
			(*df)[id]++
			k = j
		}
		docs[i] = v
	}
	return docs
}

// TF returns the TF vector of entity i from the given collection (1 or 2).
func (s *Space) TF(collection, i int) Vec {
	if collection == 1 {
		return s.docs1[i]
	}
	return s.docs2[i]
}

// TFIDF returns the TF-IDF weighted vector of entity i, served from the
// per-entity cache (built on first use).
func (s *Space) TFIDF(collection, i int) Vec {
	s.ensureCache()
	if collection == 1 {
		return s.tfidf1[i]
	}
	return s.tfidf2[i]
}

// tfidfOf materializes one TF-IDF vector; ensureCache calls it per
// entity exactly once.
func (s *Space) tfidfOf(tf Vec) Vec {
	v := Vec{IDs: tf.IDs, Ws: make([]float64, len(tf.Ws))}
	for k, id := range tf.IDs {
		v.Ws[k] = tf.Ws[k] * s.idf[id]
	}
	return v
}

// ensureCache builds the memoized TF-IDF vectors and the TF/TF-IDF norms
// of every entity. It runs at most once per Space (sync.Once), so both
// every AllSims and TFIDF caller shares one materialization.
func (s *Space) ensureCache() {
	s.cacheOnce.Do(func() {
		s.tfidf1 = make([]Vec, len(s.docs1))
		s.tfNorm1 = make([]float64, len(s.docs1))
		s.wNorm1 = make([]float64, len(s.docs1))
		for i, d := range s.docs1 {
			s.tfidf1[i] = s.tfidfOf(d)
			s.tfNorm1[i] = d.Norm()
			s.wNorm1[i] = s.tfidf1[i].Norm()
		}
		s.tfidf2 = make([]Vec, len(s.docs2))
		s.tfNorm2 = make([]float64, len(s.docs2))
		s.wNorm2 = make([]float64, len(s.docs2))
		for j, d := range s.docs2 {
			s.tfidf2[j] = s.tfidfOf(d)
			s.tfNorm2[j] = d.Norm()
			s.wNorm2[j] = s.tfidf2[j].Norm()
		}
		// The ARCS contribution of a shared gram depends only on its two
		// document frequencies; tabulating it once replaces a math.Log
		// per shared gram per pair with a load of the identical float.
		s.arcsW = make([]float64, s.vocabSize)
		for id := range s.arcsW {
			df1 := math.Max(2, float64(s.df1[id]))
			df2 := math.Max(2, float64(s.df2[id]))
			s.arcsW[id] = math.Ln2 / math.Log(df1*df2)
		}
	})
}

// Measure names for bag models, as used in the paper (Appendix B,
// category 2): six measures combining ARCS, cosine and Jaccard variants
// with TF or TF-IDF weights.
const (
	MeasureARCS        = "ARCS"
	MeasureCosineTF    = "CosineTF"
	MeasureCosineTFIDF = "CosineTFIDF"
	MeasureJaccard     = "Jaccard"
	MeasureGenJacTF    = "GeneralizedJaccardTF"
	MeasureGenJacTFIDF = "GeneralizedJaccardTFIDF"
)

// Measures returns the six bag-model measure names in a stable order.
func Measures() []string {
	return []string{
		MeasureARCS, MeasureCosineTF, MeasureCosineTFIDF,
		MeasureJaccard, MeasureGenJacTF, MeasureGenJacTFIDF,
	}
}

// BuildPostings builds a CSR inverted index over per-item id lists:
// ids[off[g]:off[g+1]] lists, in ascending item order, the items whose
// list contains id g. size is the id-space size; every id must be in
// [0, size).
func BuildPostings(lists [][]int32, size int) (off, ids []int32) {
	off = make([]int32, size+1)
	for _, l := range lists {
		for _, id := range l {
			off[id+1]++
		}
	}
	for g := 0; g < size; g++ {
		off[g+1] += off[g]
	}
	ids = make([]int32, off[size])
	next := append([]int32(nil), off[:size]...)
	for i, l := range lists {
		for _, id := range l {
			ids[next[id]] = int32(i)
			next[id]++
		}
	}
	return off, ids
}

// UnionCandidates appends to dst the distinct items posted under any of
// the query ids, in ascending order. bits must be a zeroed bitset with
// at least one bit per item; it is cleared again before returning, so
// one allocation serves a whole enumeration loop. The ascending order
// comes from walking the touched bitset words lowest-first, so no sort
// is needed.
func UnionCandidates(query, off, post []int32, bits []uint64, dst []int32) []int32 {
	dst = dst[:0]
	loW, hiW := len(bits), -1
	for _, id := range query {
		for _, i := range post[off[id]:off[id+1]] {
			w := int(i >> 6)
			if bits[w]&(1<<(uint(i)&63)) == 0 {
				bits[w] |= 1 << (uint(i) & 63)
				if w < loW {
					loW = w
				}
				if w > hiW {
					hiW = w
				}
			}
		}
	}
	for w := loW; w <= hiW; w++ {
		for word := bits[w]; word != 0; word &= word - 1 {
			dst = append(dst, int32(w<<6+bits2.TrailingZeros64(word)))
		}
		bits[w] = 0
	}
	return dst
}

// postings builds (once) the CSR inverted index over collection 1:
// postIDs[postOff[g]:postOff[g+1]] lists, in ascending order, the
// entities whose vectors contain gram g.
func (s *Space) postings() {
	s.postOnce.Do(func() {
		lists := make([][]int32, len(s.docs1))
		for i, v := range s.docs1 {
			lists[i] = v.IDs
		}
		s.postOff, s.postIDs = BuildPostings(lists, s.vocabSize)
	})
}

// Candidates appends to dst the collection-1 entities sharing at least
// one gram with entity j of collection 2, in ascending order. bits must
// be a zeroed bitset with at least N1 bits; it is cleared again before
// returning, so one allocation serves a whole enumeration loop. Passing
// nil bits (and nil dst) is valid but allocates per call.
func (s *Space) Candidates(j int, bits []uint64, dst []int32) []int32 {
	s.postings()
	if bits == nil {
		bits = make([]uint64, (len(s.docs1)+63)/64)
	}
	return UnionCandidates(s.docs2[j].IDs, s.postOff, s.postIDs, bits, dst)
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}
