// Lossless zero-score filters: cheap per-pair tests and candidate
// indexes that provably never discard a pair whose similarity is
// positive, so similarity-graph generation (internal/simgraph) can skip
// kernel work on the rest of the n1×n2 space with byte-identical output.
//
// Two families of filters live here:
//
//   - Character signatures (Sig128): each rune of a string hashes to
//     one bit. Disjoint signatures imply disjoint alphabets, and two
//     strings over disjoint alphabets score exactly 0 on Levenshtein,
//     Damerau-Levenshtein, Jaro, q-grams distance, the two LCS variants,
//     Smith-Waterman and on every token measure that requires a shared
//     token or a shared character (hash collisions only ever merge
//     buckets, making the test conservative — never lossy). The one
//     schema-based measure this does NOT hold for is Needleman-Wunsch:
//     with the paper's scoring (match 0, mismatch -1, gap -2) a
//     disjoint-alphabet pair still scores min/(2·max) > 0, so NW must
//     stay dense.
//
//   - Token postings (TokenIndex): a CSR inverted index over one
//     collection's token lists, reusing the vector package's postings
//     machinery, enumerating exactly the opposite-side entities that
//     share at least one token — the support set of every
//     shared-token-required measure.
package blocking

import (
	"math"

	"github.com/ccer-go/ccer/internal/vector"
)

// sigBucket hashes a rune onto a bucket in [0, 128): a Fibonacci-hash
// spread so that dense ASCII ranges do not pile onto neighbouring bits.
func sigBucket(r rune) uint32 { return uint32(r) * 0x9E3779B1 >> 25 }

// Sig128 is a 128-bit character signature: one bit per hashed rune
// bucket.
type Sig128 [2]uint64

// Sig128Of returns the 128-bit signature of the text's runes.
func Sig128Of(text string) Sig128 {
	var s Sig128
	for _, r := range text {
		b := sigBucket(r)
		s[b>>6&1] |= 1 << (b & 63)
	}
	return s
}

// Sig128OfTokens returns the 128-bit signature of all runes of all
// tokens — the alphabet the token-level measures (and Monge-Elkan's
// Smith-Waterman core) actually see, which differs from the raw text's
// by case folding and separator removal.
func Sig128OfTokens(tokens []string) Sig128 {
	var s Sig128
	for _, tok := range tokens {
		for _, r := range tok {
			b := sigBucket(r)
			s[b>>6&1] |= 1 << (b & 63)
		}
	}
	return s
}

// Intersects reports whether the two signatures share a bucket. False
// guarantees the underlying alphabets are disjoint.
func (s Sig128) Intersects(o Sig128) bool {
	return s[0]&o[0] != 0 || s[1]&o[1] != 0
}

// Sig128All returns one raw-rune signature per text.
func Sig128All(texts []string) []Sig128 {
	out := make([]Sig128, len(texts))
	for i, t := range texts {
		out[i] = Sig128Of(t)
	}
	return out
}

// TokenIndex is a CSR inverted index over the token lists of one entity
// collection: Candidates enumerates the entities sharing at least one
// token with a query list. Built once per collection and safe for
// concurrent readers.
type TokenIndex struct {
	ids  map[string]int32
	off  []int32
	post []int32
	n    int
}

// NewTokenIndex indexes the per-entity token lists (duplicates within a
// list are collapsed).
func NewTokenIndex(lists [][]string) *TokenIndex {
	ix := &TokenIndex{ids: make(map[string]int32), n: len(lists)}
	idLists := make([][]int32, len(lists))
	var buf []int32
	for i, toks := range lists {
		buf = buf[:0]
		for _, tok := range toks {
			id, ok := ix.ids[tok]
			if !ok {
				id = int32(len(ix.ids))
				ix.ids[tok] = id
			}
			dup := false
			for _, prev := range buf {
				if prev == id {
					dup = true
					break
				}
			}
			if !dup {
				buf = append(buf, id)
			}
		}
		idLists[i] = append([]int32(nil), buf...)
	}
	ix.off, ix.post = vector.BuildPostings(idLists, len(ix.ids))
	return ix
}

// Len returns the number of indexed entities.
func (ix *TokenIndex) Len() int { return ix.n }

// QueryIDs appends to dst the index's ids of the given tokens, skipping
// tokens the index has never seen (they cannot contribute candidates).
// Duplicate tokens are collapsed by the bitset in Candidates, so dst may
// contain repeats.
func (ix *TokenIndex) QueryIDs(tokens []string, dst []int32) []int32 {
	dst = dst[:0]
	for _, tok := range tokens {
		if id, ok := ix.ids[tok]; ok {
			dst = append(dst, id)
		}
	}
	return dst
}

// CandidateBits marks in bits, without clearing them afterwards, the
// indexed entities whose token list intersects the query ids, returning
// the marked entities (unsorted, for the caller to clear). Row kernels
// that only need membership tests keep the bitset live while scanning
// and clear it through the returned list.
func (ix *TokenIndex) CandidateBits(queryIDs []int32, bits []uint64, marked []int32) []int32 {
	marked = marked[:0]
	for _, id := range queryIDs {
		for _, i := range ix.post[ix.off[id]:ix.off[id+1]] {
			if bits[i>>6]&(1<<(uint(i)&63)) == 0 {
				bits[i>>6] |= 1 << (uint(i) & 63)
				marked = append(marked, i)
			}
		}
	}
	return marked
}

// mulSat64 multiplies two non-negative int64s, saturating at MaxInt64
// instead of overflowing — pathological blocks (every entity under one
// stop-word key on both sides) can overflow a naive product on 64-bit
// counts assembled from streamed inputs.
func mulSat64(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}
