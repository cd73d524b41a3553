package resilience

import (
	"context"
	"sync"
	"time"
)

// fault is one armed injection: added latency, then an optional error,
// for a bounded (or unbounded) number of hits.
type fault struct {
	delay     time.Duration
	err       error
	remaining int // < 0 means every hit
}

// Faults is a registry of named fault points around the compute layer,
// the serving-side sibling of crashtest.FaultFS: the chaos/overload
// tests arm latency and error injection at points like "match" and
// "generate" to stretch computations (forcing queue buildup and
// coalescing windows) or fail them on demand. Production servers carry
// a nil *Faults, which injects nothing at zero cost beyond a nil check.
type Faults struct {
	mu     sync.Mutex
	points map[string]*fault
	hits   map[string]int64
}

// NewFaults returns an empty registry; arm points with Set. It is test
// support: the overload, readiness and metrics tests of internal/serve
// and the router tests of internal/cluster build their registries with
// it.
func NewFaults() *Faults {
	return &Faults{points: map[string]*fault{}, hits: map[string]int64{}}
}

// Set arms the named point: every matching Inject sleeps delay (cut
// short by the caller's context) and returns err. count bounds how many
// hits fire; count < 0 keeps the fault armed forever, count == 0
// disarms the point. It is test support, like NewFaults.
func (f *Faults) Set(point string, delay time.Duration, err error, count int) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if count == 0 {
		delete(f.points, point)
		return
	}
	f.points[point] = &fault{delay: delay, err: err, remaining: count}
}

// Inject fires the named point: it sleeps the armed latency (returning
// ctx.Err() early if the context dies first) and returns the armed
// error. An unarmed point — and any point on a nil registry — is free
// and returns nil.
func (f *Faults) Inject(ctx context.Context, point string) error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	ft := f.points[point]
	if ft == nil {
		f.mu.Unlock()
		return nil
	}
	f.hits[point]++
	if ft.remaining > 0 {
		ft.remaining--
		if ft.remaining == 0 {
			delete(f.points, point)
		}
	}
	delay, err := ft.delay, ft.err
	f.mu.Unlock()

	if delay > 0 {
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return err
}

// Hits is the lifetime armed-hit count of the named point; it survives
// the point disarming or exhausting its count. It is test support: the
// tests of this package and internal/serve read it.
func (f *Faults) Hits(point string) int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits[point]
}
