package resilience

import (
	"context"
	"sync"
	"sync/atomic"
)

// flight is one in-progress execution that concurrent identical callers
// share. val and err are written exactly once, before done is closed;
// the close is the happens-before edge that publishes them to waiters.
type flight[V any] struct {
	cancel context.CancelFunc
	done   chan struct{}
	refs   int // callers currently interested in the result
	val    V
	err    error
}

// Group coalesces identical in-flight work: concurrent Do calls with
// the same key share one execution of fn, so a stampede of identical
// requests costs one computation. The executions this module coalesces
// (matchings at a fixed seed, similarity-graph generation) are
// deterministic, which is what makes sharing byte-safe.
//
// fn runs on its own goroutine under a flight-scoped context that is
// cancelled only when every interested caller has gone — one waiter
// hanging up does not abort the computation for the rest, but when the
// last one leaves, the work is told to stop. A caller whose own ctx
// expires while waiting gets ctx.Err() back; the flight keeps running
// for whoever remains.
//
// The zero value is ready to use.
type Group[K comparable, V any] struct {
	mu      sync.Mutex
	flights map[K]*flight[V]
	hits    atomic.Int64
}

// Do returns the result of fn for key, sharing an in-flight execution
// when one exists. shared reports whether this call attached to another
// caller's execution (a coalesce hit) rather than leading its own.
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func(context.Context) (V, error)) (v V, shared bool, err error) {
	g.mu.Lock()
	if g.flights == nil {
		g.flights = make(map[K]*flight[V])
	}
	f, shared := g.flights[key]
	if !shared {
		fctx, cancel := context.WithCancel(context.Background())
		f = &flight[V]{cancel: cancel, done: make(chan struct{})}
		g.flights[key] = f
		go g.lead(key, f, fctx, fn)
	} else {
		g.hits.Add(1)
	}
	f.refs++
	g.mu.Unlock()

	select {
	case <-f.done:
		g.release(key, f)
		return f.val, shared, f.err
	case <-ctx.Done():
		g.release(key, f)
		var zero V
		return zero, shared, ctx.Err()
	}
}

// lead runs fn and publishes its result. The flight is delisted before
// done is closed, so a caller arriving after completion starts a fresh
// execution instead of reading a stale one.
func (g *Group[K, V]) lead(key K, f *flight[V], fctx context.Context, fn func(context.Context) (V, error)) {
	v, err := fn(fctx)
	g.mu.Lock()
	f.val, f.err = v, err
	if g.flights[key] == f {
		delete(g.flights, key)
	}
	g.mu.Unlock()
	close(f.done)
	f.cancel()
}

// release drops one caller's interest; the last one out cancels a
// still-running flight (nobody wants the answer anymore) and delists it
// so later callers lead anew.
func (g *Group[K, V]) release(key K, f *flight[V]) {
	g.mu.Lock()
	f.refs--
	if f.refs == 0 {
		select {
		case <-f.done:
			// Already finished; lead delisted it.
		default:
			f.cancel()
			if g.flights[key] == f {
				delete(g.flights, key)
			}
		}
	}
	g.mu.Unlock()
}

// Hits is the lifetime count of Do calls that attached to another
// caller's in-flight execution instead of computing themselves.
func (g *Group[K, V]) Hits() int64 { return g.hits.Load() }
