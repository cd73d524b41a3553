package serve

import (
	"container/list"
	"sync"

	"github.com/ccer-go/ccer/internal/core"
	"github.com/ccer-go/ccer/internal/dataset"
	"github.com/ccer-go/ccer/internal/eval"
)

// CacheKey identifies one cached matching. Version (not just the graph
// name) is part of the key so overwriting a name silently invalidates
// all of its cached results; Checksum is too, because a replica-sync
// write (Store.SyncPut) can replace a graph's content at its current
// version. Seed distinguishes runs of the stochastic matchers (BAH,
// QLM).
type CacheKey struct {
	Graph     string
	Version   int64
	Checksum  uint64
	Algorithm string
	Threshold float64
	Seed      int64
}

// ResultCache is a goroutine-safe LRU cache of matchings. A capacity
// below 1 disables caching (every Get misses, Put is a no-op), which
// keeps the handler code free of nil checks.
type ResultCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used
	items    map[CacheKey]*list.Element

	hits, misses, evictions int64
}

type cacheItem struct {
	key   CacheKey
	pairs []core.Pair
	// rendered is pairs as a match reply's "pairs" array (appendPairs),
	// and metrics are pairs scored against gt. Both are kept from the
	// entry's first hit on, so later hits copy the rendering instead of
	// formatting every pair again, and reuse the scores while their
	// ground truth is gt. rendered is nil until then: a matching that is
	// never asked for twice is never rendered or scored for the cache.
	rendered []byte
	metrics  eval.Metrics
	gt       *dataset.GroundTruth
}

// NewResultCache returns a cache holding up to capacity matchings.
func NewResultCache(capacity int) *ResultCache {
	return &ResultCache{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[CacheKey]*list.Element),
	}
}

// Get returns the cached pairs for k, marking them most recently used.
// Callers must not modify the returned slice.
func (c *ResultCache) Get(k CacheKey) ([]core.Pair, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	it := c.lookup(k)
	if it == nil {
		return nil, false
	}
	return it.pairs, true
}

// getRendered is Get for the match handler: on a hit it also returns
// the pairs rendered by appendPairs and their metrics against gt,
// rendering and scoring them on the entry's first hit, and scoring them
// again on a hit against another ground truth. Callers must not modify
// either returned slice.
func (c *ResultCache) getRendered(k CacheKey, gt *dataset.GroundTruth) ([]core.Pair, []byte, eval.Metrics, bool) {
	c.mu.Lock()
	it := c.lookup(k)
	if it == nil {
		c.mu.Unlock()
		return nil, nil, eval.Metrics{}, false
	}
	pairs, rendered, m, scored := it.pairs, it.rendered, it.metrics, it.gt
	c.mu.Unlock()
	if rendered != nil && scored == gt {
		return pairs, rendered, m, true
	}
	// Render and score outside the lock; two first hits racing both do,
	// and either result may stay. A Put that refreshed k meanwhile
	// replaced the pairs, and this rendering and these scores are not
	// theirs.
	if rendered == nil {
		rendered = appendPairs(nil, pairs)
	}
	m = eval.Evaluate(pairs, gt)
	c.mu.Lock()
	if len(it.pairs) == len(pairs) && (len(pairs) == 0 || &it.pairs[0] == &pairs[0]) {
		it.rendered, it.metrics, it.gt = rendered, m, gt
	}
	c.mu.Unlock()
	return pairs, rendered, m, true
}

// lookup counts a hit or a miss for k and returns its item, marked most
// recently used, or nil. c.mu must be held.
func (c *ResultCache) lookup(k CacheKey) *cacheItem {
	el, ok := c.items[k]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheItem)
}

// Put stores the pairs under k, evicting the least recently used entry
// when the cache is full. Storing an existing key refreshes its value
// and recency, and drops the old value's rendering and scores.
func (c *ResultCache) Put(k CacheKey, pairs []core.Pair) {
	if c.capacity < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		it := el.Value.(*cacheItem)
		*it = cacheItem{key: k, pairs: pairs}
		c.order.MoveToFront(el)
		return
	}
	for len(c.items) >= c.capacity {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.items, last.Value.(*cacheItem).key)
		c.evictions++
	}
	c.items[k] = c.order.PushFront(&cacheItem{key: k, pairs: pairs})
}

// InvalidateGraph eagerly drops every cached matching of the named
// graph, whatever version it was computed against, returning how many
// entries were evicted. DELETE /v1/graphs calls it so the matchings of
// dead versions stop pinning cache capacity until LRU pressure happens
// to reach them (their keys can never be requested again: the version
// embedded in the key is retired with the graph).
func (c *ResultCache) InvalidateGraph(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k, el := range c.items {
		if k.Graph == name {
			c.order.Remove(el)
			delete(c.items, k)
			c.evictions++
			n++
		}
	}
	return n
}

// Len returns the number of cached matchings.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Capacity returns the configured maximum size.
func (c *ResultCache) Capacity() int { return c.capacity }

// Stats returns the lifetime hit, miss and eviction counts.
func (c *ResultCache) Stats() (hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}
