package serve

import (
	"fmt"
	"sync"
	"testing"

	"github.com/ccer-go/ccer/internal/core"
	"github.com/ccer-go/ccer/internal/dataset"
	"github.com/ccer-go/ccer/internal/eval"
)

func key(graph string, version int64, algo string, t float64, seed int64) CacheKey {
	return CacheKey{Graph: graph, Version: version, Algorithm: algo, Threshold: t, Seed: seed}
}

func pairs(us ...int32) []core.Pair {
	out := make([]core.Pair, len(us))
	for i, u := range us {
		out[i] = core.Pair{U: u, V: u, W: 1}
	}
	return out
}

func TestCacheHitMissAndStats(t *testing.T) {
	c := NewResultCache(4)
	k := key("g", 1, "UMC", 0.5, 1)
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(k, pairs(1, 2))
	got, ok := c.Get(k)
	if !ok || len(got) != 2 {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	hits, misses, evictions := c.Stats()
	if hits != 1 || misses != 1 || evictions != 0 {
		t.Fatalf("stats = %d/%d/%d, want 1/1/0", hits, misses, evictions)
	}
}

func TestCacheKeyFields(t *testing.T) {
	c := NewResultCache(16)
	base := key("g", 1, "UMC", 0.5, 1)
	c.Put(base, pairs(1))
	for _, k := range []CacheKey{
		key("h", 1, "UMC", 0.5, 1),  // other graph
		key("g", 2, "UMC", 0.5, 1),  // other version
		key("g", 1, "CNC", 0.5, 1),  // other algorithm
		key("g", 1, "UMC", 0.55, 1), // other threshold
		key("g", 1, "UMC", 0.5, 7),  // other seed
		{Graph: "g", Version: 1, Checksum: 9, Algorithm: "UMC", Threshold: 0.5, Seed: 1}, // other content, same version
	} {
		if _, ok := c.Get(k); ok {
			t.Fatalf("key %+v unexpectedly hit", k)
		}
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewResultCache(2)
	k1, k2, k3 := key("g", 1, "A", 0, 1), key("g", 1, "B", 0, 1), key("g", 1, "C", 0, 1)
	c.Put(k1, pairs(1))
	c.Put(k2, pairs(2))
	if _, ok := c.Get(k1); !ok { // refresh k1: k2 becomes LRU
		t.Fatal("k1 missing")
	}
	c.Put(k3, pairs(3))
	if _, ok := c.Get(k2); ok {
		t.Fatal("LRU entry k2 survived eviction")
	}
	for _, k := range []CacheKey{k1, k3} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("entry %+v evicted, want kept", k)
		}
	}
	if _, _, evictions := c.Stats(); evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestCachePutRefreshesValue(t *testing.T) {
	c := NewResultCache(2)
	k := key("g", 1, "A", 0, 1)
	c.Put(k, pairs(1))
	if _, rendered, _, ok := c.getRendered(k, nil); !ok || string(rendered) != string(appendPairs(nil, pairs(1))) {
		t.Fatalf("first hit rendered %q, %v", rendered, ok)
	}
	c.Put(k, pairs(1, 2, 3))
	got, ok := c.Get(k)
	if !ok || len(got) != 3 {
		t.Fatalf("refreshed Get = %v, %v", got, ok)
	}
	// The refresh dropped the old value's rendering.
	if _, rendered, _, _ := c.getRendered(k, nil); string(rendered) != string(appendPairs(nil, pairs(1, 2, 3))) {
		t.Fatalf("refreshed entry rendered %q", rendered)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after double Put of one key", c.Len())
	}
	if hits, misses, _ := c.Stats(); hits != 3 || misses != 0 {
		t.Fatalf("stats = %d hits / %d misses, want 3/0", hits, misses)
	}
}

// TestCacheScoresFollowGroundTruth hits one entry with one ground truth
// and then another: each hit returns the scores against its own, and a
// Put that refreshes the key drops the kept scores.
func TestCacheScoresFollowGroundTruth(t *testing.T) {
	c := NewResultCache(2)
	k := key("g", 1, "A", 0, 1)
	c.Put(k, pairs(1, 2))
	gtA := dataset.NewGroundTruth([][2]int32{{1, 1}})         // one pair of two right
	gtB := dataset.NewGroundTruth([][2]int32{{1, 1}, {2, 2}}) // both right
	for _, hit := range []struct {
		name string
		gt   *dataset.GroundTruth
		want eval.Metrics
	}{
		{"A", gtA, eval.Metrics{Precision: 0.5, Recall: 1, F1: 2.0 / 3}},
		{"A again", gtA, eval.Metrics{Precision: 0.5, Recall: 1, F1: 2.0 / 3}},
		{"B", gtB, eval.Metrics{Precision: 1, Recall: 1, F1: 1}},
		{"none", nil, eval.Metrics{}},
	} {
		if _, _, m, ok := c.getRendered(k, hit.gt); !ok || m != hit.want {
			t.Fatalf("hit with ground truth %s: scores %+v, %v, want %+v", hit.name, m, ok, hit.want)
		}
	}
	c.getRendered(k, gtB)
	c.Put(k, pairs(3))
	c.mu.Lock()
	it := c.items[k].Value.(*cacheItem)
	kept, rendered, gt := it.metrics, it.rendered, it.gt
	c.mu.Unlock()
	if kept != (eval.Metrics{}) || rendered != nil || gt != nil {
		t.Fatalf("refreshed entry kept scores %+v against %p and rendering %q, want none", kept, gt, rendered)
	}
	if _, _, m, _ := c.getRendered(k, gtB); m != (eval.Metrics{}) {
		t.Fatalf("refreshed entry scored %+v against a ground truth that holds none of its pairs", m)
	}
}

// TestCacheRenderedFollowsPairs races first hits against Puts that
// refresh the key: every hit's rendering and scores must be those of the
// pairs it returns.
func TestCacheRenderedFollowsPairs(t *testing.T) {
	c := NewResultCache(4)
	k := key("g", 1, "A", 0, 1)
	gt := dataset.NewGroundTruth([][2]int32{{1, 1}, {4, 4}})
	values := [][]core.Pair{pairs(1), pairs(1, 2), pairs(), pairs(3, 4, 5)}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if g%2 == 0 {
					c.Put(k, values[(g+i)%len(values)])
					continue
				}
				got, rendered, m, ok := c.getRendered(k, gt)
				if ok && string(rendered) != string(appendPairs(nil, got)) {
					t.Errorf("hit returned %v rendered as %q", got, rendered)
					return
				}
				if want := eval.Evaluate(got, gt); ok && m != want {
					t.Errorf("hit returned %v scored %+v, want %+v", got, m, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestCacheDisabled(t *testing.T) {
	c := NewResultCache(-1)
	k := key("g", 1, "A", 0, 1)
	c.Put(k, pairs(1))
	if _, ok := c.Get(k); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if c.Len() != 0 {
		t.Fatalf("disabled cache Len = %d", c.Len())
	}
}

func TestCacheManyKeysStayBounded(t *testing.T) {
	c := NewResultCache(8)
	for i := 0; i < 100; i++ {
		c.Put(key("g", 1, fmt.Sprintf("A%d", i), 0, 1), pairs(int32(i)))
	}
	if c.Len() != 8 {
		t.Fatalf("Len = %d, want capacity 8", c.Len())
	}
}
