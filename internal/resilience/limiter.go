package resilience

import (
	"context"
	"sync"
	"time"
)

// Priority classes of the admission queue. Interactive work (a user
// waiting on a match response) is always granted a freed slot before
// bulk work (generation, sweeps), so heavy background load degrades
// bulk latency first and interactive p99 last.
type Priority int

const (
	// Interactive is the high-priority class: synchronous match
	// computations a client is blocked on.
	Interactive Priority = iota
	// Bulk is the low-priority class: similarity-graph generation and
	// sweep executions, work that tolerates queueing.
	Bulk
	numPriorities
)

// Shed reasons, the machine-readable vocabulary of ShedError and the
// shed_total{reason} metric.
const (
	ReasonQueueFull    = "queue_full"
	ReasonQueueTimeout = "queue_timeout"
	// ReasonDegraded is used by the serving layer for mutations refused
	// while the durable log is latched failed; the limiter itself never
	// sheds with it, but the reason lives here so the vocabulary has
	// one home.
	ReasonDegraded = "degraded"
	// ReasonBacklog is used by the serving layer when the async sweep
	// backlog is at capacity.
	ReasonBacklog = "sweep_backlog"
)

// waiter is one queued Acquire. granted flips under the limiter's mutex
// exactly once; whoever flips it owns the handoff (the granter closes
// ready, an abandoning waiter returns the slot it raced into).
type waiter struct {
	ready   chan struct{}
	granted bool
}

// Limiter is a bounded, two-priority admission queue over a fixed pool
// of computation slots: at most slots heavy computations run at once,
// at most depth requests wait per priority class, and no request waits
// longer than its budget. Beyond any of those bounds the request is
// shed immediately with a machine-readable reason — a 503 now instead
// of a timeout later — so p99 degrades gracefully instead of the whole
// process collapsing under a stampede.
//
// A nil Limiter admits everything instantly (the "admission off"
// configuration), mirroring the obs package's nil-receiver contract.
type Limiter struct {
	mu    sync.Mutex
	free  int
	q     [numPriorities][]*waiter
	depth int
	sheds map[string]int64

	admitted int64
	inUse    int
}

// NewLimiter returns a limiter with the given concurrency slots and
// per-priority queue depth. slots < 1 and depth < 0 are clamped to 1
// and 0.
func NewLimiter(slots, depth int) *Limiter {
	if slots < 1 {
		slots = 1
	}
	if depth < 0 {
		depth = 0
	}
	return &Limiter{
		free:  slots,
		depth: depth,
		sheds: map[string]int64{ReasonQueueFull: 0, ReasonQueueTimeout: 0},
	}
}

// Acquire claims a computation slot, waiting in the priority class's
// queue for at most budget (budget <= 0 waits on ctx alone — the
// patient mode async jobs use). It returns nil when a slot is held
// (pair with Release), a *ShedError when the queue is full or the
// budget expired, and ctx.Err() when the caller gave up first.
func (l *Limiter) Acquire(ctx context.Context, p Priority, budget time.Duration) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	if l.free > 0 {
		l.free--
		l.inUse++
		l.admitted++
		l.mu.Unlock()
		return nil
	}
	if len(l.q[p]) >= l.depth {
		l.sheds[ReasonQueueFull]++
		l.mu.Unlock()
		return &ShedError{Reason: ReasonQueueFull, RetryAfter: time.Second}
	}
	w := &waiter{ready: make(chan struct{})}
	l.q[p] = append(l.q[p], w)
	l.mu.Unlock()

	var timeout <-chan time.Time
	if budget > 0 {
		t := time.NewTimer(budget)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-w.ready:
		return nil
	case <-timeout:
		if l.abandon(p, w, ReasonQueueTimeout) {
			return &ShedError{Reason: ReasonQueueTimeout, RetryAfter: time.Second}
		}
		return nil // the grant won the race; the slot is ours
	case <-ctx.Done():
		if !l.abandon(p, w, "") {
			// Granted just as we gave up: the caller will not run, so
			// hand the slot on rather than leak it.
			l.Release()
		}
		return ctx.Err()
	}
}

// abandon removes w from its queue, recording reason when one is given
// (a budget shed; context cancellation is the caller's own doing, not
// load shedding). It reports false when the grant already happened, in
// which case the caller owns a slot after all.
func (l *Limiter) abandon(p Priority, w *waiter, reason string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if w.granted {
		return false
	}
	w.granted = true // marks the waiter dead; Release skips it defensively
	for i, o := range l.q[p] {
		if o == w {
			l.q[p] = append(l.q[p][:i], l.q[p][i+1:]...)
			break
		}
	}
	if reason != "" {
		l.sheds[reason]++
	}
	return true
}

// Release returns a slot, handing it to the longest-waiting interactive
// request first, then the longest-waiting bulk one.
func (l *Limiter) Release() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for p := Interactive; p < numPriorities; p++ {
		for len(l.q[p]) > 0 {
			w := l.q[p][0]
			l.q[p] = l.q[p][1:]
			if w.granted {
				continue // abandoned concurrently; already delisted? defensive
			}
			w.granted = true
			l.admitted++
			close(w.ready)
			return
		}
	}
	l.inUse--
	l.free++
}

// Depth is the number of requests currently waiting, across both
// priority classes — the admission_queue_depth gauge.
func (l *Limiter) Depth() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.q[Interactive]) + len(l.q[Bulk])
}

// InUse is the number of slots currently held.
func (l *Limiter) InUse() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inUse
}

// Admitted is the lifetime count of granted slots.
func (l *Limiter) Admitted() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.admitted
}

// ShedCounts is the lifetime shed count per reason. Both limiter
// reasons are always present (zero-valued before any shed), so the
// metric series exist from the first scrape.
func (l *Limiter) ShedCounts() map[string]int64 {
	if l == nil {
		return map[string]int64{ReasonQueueFull: 0, ReasonQueueTimeout: 0}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]int64, len(l.sheds))
	for k, v := range l.sheds {
		out[k] = v
	}
	return out
}
