// Package repcache provides the small content-addressed cache behind the
// cross-build representation caches of internal/vector, internal/ngraph
// and internal/embed: entries are keyed by a 128-bit content hash of the
// inputs they were derived from, bounded by entry count with
// least-recently-used eviction, and safe for concurrent use. A resident
// service (internal/serve) regenerating graphs for the same dataset
// reuses the per-entity representations instead of rebuilding them; the
// representations are pure functions of their inputs, so a hit is
// byte-identical to a rebuild.
package repcache

import (
	"sync"
	"sync/atomic"
)

// Key is a 128-bit content hash. Builders derive it from the full input
// text (not a name), so two inputs only share a key on a hash collision
// — at 128 bits, never in practice.
type Key struct{ Hi, Lo uint64 }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Hasher accumulates a Key over length-prefixed byte strings, so
// concatenation ambiguities ("ab","c" vs "a","bc") hash differently.
type Hasher struct{ hi, lo uint64 }

// NewHasher seeds a hasher with a salt separating key spaces (mode,
// model, configuration) that share input texts.
func NewHasher(salt uint64) *Hasher {
	h := &Hasher{hi: fnvOffset, lo: fnvOffset ^ 0x9e3779b97f4a7c15}
	h.Uint64(salt)
	return h
}

func (h *Hasher) byte(b byte) {
	h.hi = (h.hi ^ uint64(b)) * fnvPrime
	h.lo = (h.lo ^ uint64(b)) * (fnvPrime + 2)
}

// Uint64 mixes an 8-byte value.
func (h *Hasher) Uint64(x uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(x >> (8 * i)))
	}
}

// String mixes a length-prefixed string.
func (h *Hasher) String(s string) {
	h.Uint64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

// Strings mixes a length-prefixed string list.
func (h *Hasher) Strings(ss []string) {
	h.Uint64(uint64(len(ss)))
	for _, s := range ss {
		h.String(s)
	}
}

// StringLists mixes a length-prefixed list of string lists.
func (h *Hasher) StringLists(lists [][]string) {
	h.Uint64(uint64(len(lists)))
	for _, ss := range lists {
		h.Strings(ss)
	}
}

// Key returns the accumulated key.
func (h *Hasher) Key() Key { return Key{Hi: h.hi, Lo: h.lo} }

type entry[V any] struct {
	once sync.Once
	val  V
	ok   bool  // set only after build returned normally
	used int64 // LRU stamp, updated under the cache mutex
}

// Cache is a bounded content-addressed cache. The zero value is not
// usable; call New.
type Cache[V any] struct {
	mu    sync.Mutex
	max   int
	m     map[Key]*entry[V]
	clock int64

	hits, misses, evictions atomic.Int64
}

// New returns a cache retaining at most max entries (max < 1 is treated
// as 1).
func New[V any](max int) *Cache[V] {
	if max < 1 {
		max = 1
	}
	return &Cache[V]{max: max, m: make(map[Key]*entry[V], max)}
}

// GetOrBuild returns the cached value for key, building (and caching) it
// on a miss. build runs outside the cache lock, at most once per key
// (concurrent callers of the same key share one build); the returned
// flag reports whether the value was already resident. Values must be
// treated as immutable by all callers.
//
// A build that panics does not poison the key: the entry is dropped
// (the panic propagates to the builder), and any caller that raced the
// failed build — or arrives later — rebuilds instead of receiving the
// zero value from a consumed sync.Once.
func (c *Cache[V]) GetOrBuild(key Key, build func() V) (V, bool) {
	c.mu.Lock()
	e, hit := c.m[key]
	if !hit {
		e = &entry[V]{}
		c.m[key] = e
		if len(c.m) > c.max {
			c.evictLocked(key)
		}
	}
	c.clock++
	e.used = c.clock
	c.mu.Unlock()
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				c.mu.Lock()
				if c.m[key] == e {
					delete(c.m, key)
				}
				c.mu.Unlock()
				panic(r)
			}
		}()
		e.val = build()
		e.ok = true
	})
	if !e.ok {
		// The winning builder panicked; its entry is gone. Build
		// uncached so this caller still gets a value (or the panic).
		return build(), false
	}
	return e.val, hit
}

// evictLocked removes the least-recently-used entry other than keep.
func (c *Cache[V]) evictLocked(keep Key) {
	var victim Key
	best := int64(-1)
	for k, e := range c.m {
		if k == keep {
			continue
		}
		if best < 0 || e.used < best {
			victim, best = k, e.used
		}
	}
	if best >= 0 {
		delete(c.m, victim)
		c.evictions.Add(1)
	}
}

// Len returns the resident entry count.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats returns cumulative hit / miss / eviction counts.
func (c *Cache[V]) Stats() (hits, misses, evictions int64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}
