package repcache

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestEvictionPrefersLeastRecentlyUsed pins the ordering side of LRU:
// a Get is a touch, so the victim is the stalest entry, not the oldest
// inserted. Build counters distinguish hits from rebuilds.
func TestEvictionPrefersLeastRecentlyUsed(t *testing.T) {
	c := New[uint64](2)
	k := func(i uint64) Key { return NewHasher(i).Key() }
	builds := map[uint64]int{}
	get := func(i uint64) {
		v, _ := c.GetOrBuild(k(i), func() uint64 { builds[i]++; return i })
		if v != i {
			t.Fatalf("get(%d) = %d", i, v)
		}
	}
	get(1)
	get(2)
	get(1) // touch: 2 is now least recently used
	get(3) // must evict 2, not 1
	get(1)
	if builds[1] != 1 {
		t.Fatalf("touched entry was evicted: built %d times", builds[1])
	}
	get(2)
	if builds[2] != 2 {
		t.Fatalf("stale entry survived the eviction: built %d times", builds[2])
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

// TestConcurrentGetOrBuildBounded hammers GetOrBuild from many
// goroutines over a key space larger than the capacity, with a Len
// reader racing the evictions. Invariants: the size bound holds at
// every observation, every value GetOrBuild returns matches its key,
// and the miss/eviction accounting balances to the resident count.
func TestConcurrentGetOrBuildBounded(t *testing.T) {
	const (
		capacity = 8
		keys     = 32
		workers  = 8
		opsEach  = 2000
	)
	c := New[uint64](capacity)
	k := func(i uint64) Key { return NewHasher(i).Key() }

	var wrong atomic.Int64
	var overflow atomic.Int64
	stop := make(chan struct{})
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := c.Len(); n > capacity {
				overflow.Store(int64(n))
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			x := uint64(w)*2654435761 + 1
			for i := 0; i < opsEach; i++ {
				x = x*6364136223846793005 + 1442695040888963407 // LCG; no shared rand
				id := (x >> 33) % keys
				v, _ := c.GetOrBuild(k(id), func() uint64 { return id })
				if v != id {
					wrong.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	watcher.Wait()

	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d reads returned a value not matching its key", n)
	}
	if n := overflow.Load(); n != 0 {
		t.Fatalf("size bound violated: observed Len = %d > %d", n, capacity)
	}
	hits, misses, evictions := c.Stats()
	if hits+misses != workers*opsEach {
		t.Fatalf("hits %d + misses %d != %d ops", hits, misses, workers*opsEach)
	}
	// Every miss inserts exactly one entry and every eviction removes
	// one, so the books must balance to the resident count.
	if resident := int64(c.Len()); misses-evictions != resident {
		t.Fatalf("accounting: misses %d - evictions %d != resident %d", misses, evictions, resident)
	}
	if c.Len() > capacity {
		t.Fatalf("final Len = %d > %d", c.Len(), capacity)
	}
}
