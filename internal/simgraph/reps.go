package simgraph

import (
	"github.com/ccer-go/ccer/internal/blocking"
	"github.com/ccer-go/ccer/internal/embed"
	"github.com/ccer-go/ccer/internal/ngraph"
	"github.com/ccer-go/ccer/internal/repcache"
	"github.com/ccer-go/ccer/internal/strsim"
	"github.com/ccer-go/ccer/internal/vector"
)

// RepCaches bundles the cross-build representation caches of every
// family: bag-model spaces (internal/vector), n-gram-graph bundles
// (internal/ngraph), semantic embeddings (internal/embed) and the
// schema-based per-attribute profiles owned by this package. All four
// are content-hash keyed, bounded, and safe for concurrent use, so a
// resident service (internal/serve) shares one RepCaches across
// requests and regenerating a graph for an already-seen dataset skips
// the per-entity representation work entirely — with byte-identical
// output, since every representation is a pure function of the texts.
type RepCaches struct {
	Spaces *vector.SpaceCache
	Grams  *ngraph.EntityCache
	Sems   *embed.RepCache
	attrs  *repcache.Cache[*attrReps]
}

// NewRepCaches returns caches sized to keep the representations of
// `datasets` resident tasks (datasets < 1 means 1): 6 bag spaces and 6
// n-gram bundles per task (one per representation model), 2 semantic
// rep pairs per scope, and one profile bundle per key attribute.
func NewRepCaches(datasets int) *RepCaches {
	if datasets < 1 {
		datasets = 1
	}
	return &RepCaches{
		Spaces: vector.NewSpaceCache(6 * datasets),
		Grams:  ngraph.NewEntityCache(6 * datasets),
		Sems:   embed.NewRepCache(8 * datasets),
		attrs:  repcache.New[*attrReps](4 * datasets),
	}
}

// RepCacheStats aggregates hit/miss/eviction counts across the four
// caches, for /metrics.
type RepCacheStats struct {
	Hits, Misses, Evictions int64
	Entries                 int
}

// Stats sums the four caches' counters. A nil *RepCaches reports zeros.
func (c *RepCaches) Stats() RepCacheStats {
	var s RepCacheStats
	if c == nil {
		return s
	}
	add := func(h, m, e int64, n int) {
		s.Hits += h
		s.Misses += m
		s.Evictions += e
		s.Entries += n
	}
	h, m, e := c.Spaces.Stats()
	add(h, m, e, c.Spaces.Len())
	h, m, e = c.Grams.Stats()
	add(h, m, e, c.Grams.Len())
	h, m, e = c.Sems.Stats()
	add(h, m, e, c.Sems.Len())
	h, m, e = c.attrs.Stats()
	add(h, m, e, c.attrs.Len())
	return s
}

// spaces/grams/sems return the per-kind caches of a possibly-nil
// RepCaches (nil caches build uncached).
func (c *RepCaches) spaces() *vector.SpaceCache {
	if c == nil {
		return nil
	}
	return c.Spaces
}

func (c *RepCaches) grams() *ngraph.EntityCache {
	if c == nil {
		return nil
	}
	return c.Grams
}

func (c *RepCaches) sems() *embed.RepCache {
	if c == nil {
		return nil
	}
	return c.Sems
}

// attrReps is the precomputed per-attribute representation bundle of
// the schema-based syntactic kernel: everything derived from the two
// attribute-text columns that is reused across all n1 rows. Immutable
// after construction; safe for concurrent readers.
type attrReps struct {
	texts1, texts2 []string
	toks1, toks2   [][]string
	prof1, prof2   []*strsim.TokenProfile
	qp1, qp2       []*strsim.QGramIDProfile
	cps1           []*strsim.CharProfile
	runes2         [][]rune
	jaro2          []*strsim.JaroTable

	// Lossless zero-score filter state: raw-rune signatures gate the six
	// non-NW char measures, token-rune signatures gate Monge-Elkan, and
	// the token postings index enumerates the pairs sharing a token (the
	// support of the other eight token measures).
	rawSig1, rawSig2 []blocking.Sig128
	tokSig1, tokSig2 []blocking.Sig128
	tokIndex         *blocking.TokenIndex
	queryIDs1        [][]int32
}

func buildAttrReps(texts1, texts2 []string) *attrReps {
	r := &attrReps{texts1: texts1, texts2: texts2}
	r.toks1 = tokenizeAll(texts1)
	r.toks2 = tokenizeAll(texts2)
	r.prof1 = strsim.ProfileAll(r.toks1)
	r.prof2 = strsim.ProfileAll(r.toks2)
	qv := strsim.NewQGramVocab()
	r.qp1 = qgramProfiles(qv, texts1)
	r.qp2 = qgramProfiles(qv, texts2)
	r.cps1 = strsim.CharProfileAll(texts1)
	r.runes2 = strsim.RunesAll(texts2)
	r.jaro2 = strsim.JaroTableAll(r.runes2)
	r.rawSig1 = blocking.Sig128All(texts1)
	r.rawSig2 = blocking.Sig128All(texts2)
	r.tokSig1 = make([]blocking.Sig128, len(texts1))
	for i, toks := range r.toks1 {
		r.tokSig1[i] = blocking.Sig128OfTokens(toks)
	}
	r.tokSig2 = make([]blocking.Sig128, len(texts2))
	for j, toks := range r.toks2 {
		r.tokSig2[j] = blocking.Sig128OfTokens(toks)
	}
	r.tokIndex = blocking.NewTokenIndex(r.toks2)
	r.queryIDs1 = make([][]int32, len(texts1))
	for i, toks := range r.toks1 {
		r.queryIDs1[i] = r.tokIndex.QueryIDs(toks, nil)
	}
	return r
}

// attrRepsFor returns the bundle for one attribute column pair, through
// the cache when one is attached.
func attrRepsFor(c *RepCaches, texts1, texts2 []string) *attrReps {
	if c == nil {
		return buildAttrReps(texts1, texts2)
	}
	reps, _ := c.attrs.GetOrBuild(attrKey(texts1, texts2), func() *attrReps {
		return buildAttrReps(texts1, texts2)
	})
	return reps
}

// attrKey is the content hash keying an attribute-profile bundle in the
// RepCaches: a pure function of the two attribute text columns.
func attrKey(texts1, texts2 []string) repcache.Key {
	h := repcache.NewHasher(0xa77)
	h.Strings(texts1)
	h.Strings(texts2)
	return h.Key()
}
