package vector

import "github.com/ccer-go/ccer/internal/repcache"

// SpaceCache is the cross-build bag-model representation cache: whole
// Spaces (document vectors, DFs, IDF, and — once first used — the
// lazily built TF-IDF caches and postings) keyed by content hash of the
// mode and both collections' texts. Spaces are immutable for readers
// and safe for concurrent use, so a resident service regenerating
// graphs for the same dataset reuses one Space per mode instead of
// re-extracting every gram. A nil *SpaceCache builds uncached.
type SpaceCache struct {
	c *repcache.Cache[*Space]
}

// NewSpaceCache returns a cache bounded to maxEntries resident Spaces.
func NewSpaceCache(maxEntries int) *SpaceCache {
	return &SpaceCache{c: repcache.New[*Space](maxEntries)}
}

// Get returns the Space of the two collections under the mode, building
// it on a miss. toks1/toks2 are the texts' tokens, or nil (see
// newSpace).
func (c *SpaceCache) Get(mode Mode, texts1, texts2 []string, toks1, toks2 [][]string) *Space {
	if c == nil {
		return newSpace(mode, texts1, texts2, toks1, toks2)
	}
	h := repcache.NewHasher(0xba6 ^ uint64(mode.N)<<16)
	if mode.Char {
		h.Uint64(1)
	} else {
		h.Uint64(2)
	}
	h.Strings(texts1)
	h.Strings(texts2)
	s, _ := c.c.GetOrBuild(h.Key(), func() *Space {
		return newSpace(mode, texts1, texts2, toks1, toks2)
	})
	return s
}

// Stats returns cumulative hits, misses and evictions.
func (c *SpaceCache) Stats() (hits, misses, evictions int64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.c.Stats()
}

// Len returns the resident entry count.
func (c *SpaceCache) Len() int {
	if c == nil {
		return 0
	}
	return c.c.Len()
}
