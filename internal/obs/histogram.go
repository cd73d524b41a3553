package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// defaultBounds are the upper bucket bounds (inclusive, nanoseconds) of
// the default latency layout: 50µs doubling through ~26s, 20 finite
// buckets plus the implicit +Inf overflow. The layout spans everything
// the module times — sub-millisecond cache hits through multi-second
// corpus builds — at a fixed 21 atomic slots per histogram.
var defaultBounds = func() []int64 {
	out := make([]int64, 20)
	b := int64(50_000) // 50µs
	for i := range out {
		out[i] = b
		b *= 2
	}
	return out
}()

// Histogram is a fixed-bucket latency histogram: one atomic counter per
// bucket plus an atomic sum, so Observe is lock-free and cheap enough
// for per-request hot paths. Quantiles are estimated from the bucket
// counts by linear interpolation (see HistSnapshot.Quantile).
type Histogram struct {
	bounds []int64 // ascending upper bounds (ns), inclusive
	counts []atomic.Int64
	sum    atomic.Int64
}

// NewHistogram returns a histogram with the default latency buckets.
func NewHistogram() *Histogram { return NewHistogramBounds(defaultBounds) }

// NewHistogramBounds returns a histogram over the given ascending
// upper bounds in nanoseconds; an implicit +Inf bucket is appended.
func NewHistogramBounds(bounds []int64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one duration. Negative observations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	// sort.Search over <= 20 bounds: a handful of well-predicted
	// comparisons, no allocation.
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= ns })
	h.counts[i].Add(1)
	h.sum.Add(ns)
}

// Since observes the time elapsed since start.
func (h *Histogram) Since(start time.Time) {
	if h != nil {
		h.Observe(time.Since(start))
	}
}

// Snapshot copies the current state (zero-valued on nil).
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = h.sum.Load()
	return s
}

// HistSnapshot is an immutable copy of a histogram's state. Counts are
// per-bucket (not cumulative); Counts[len(Bounds)] is the +Inf bucket.
type HistSnapshot struct {
	Bounds []int64
	Counts []int64
	Sum    int64
	Count  int64
}

// Quantile estimates the q-quantile (0 < q <= 1) as a duration, by
// locating the bucket holding the q·Count-th observation and linearly
// interpolating within its bounds. Observations in the +Inf bucket
// report the highest finite bound (the histogram cannot say more).
// Returns 0 when empty.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= len(s.Bounds) {
			// +Inf bucket: the last finite bound is the best estimate.
			return time.Duration(s.Bounds[len(s.Bounds)-1])
		}
		lo := int64(0)
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		frac := (rank - prev) / float64(c)
		return time.Duration(lo) + time.Duration(frac*float64(hi-lo))
	}
	return time.Duration(s.Bounds[len(s.Bounds)-1])
}

// HistogramVec is a set of histograms keyed by one label value, created
// on first use (the per-algorithm / per-family / per-route latency
// families).
type HistogramVec struct {
	mu sync.RWMutex
	m  map[string]*Histogram
}

// NewHistogramVec returns an empty vec with default-layout members.
func NewHistogramVec() *HistogramVec {
	return &HistogramVec{m: map[string]*Histogram{}}
}

// With returns the histogram for the label value, creating it if
// needed. Nil-safe: a nil vec returns a nil (no-op) histogram.
func (v *HistogramVec) With(label string) *Histogram {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	h := v.m[label]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h = v.m[label]; h == nil {
		h = NewHistogram()
		v.m[label] = h
	}
	return h
}

// Snapshot copies every member histogram keyed by label value.
func (v *HistogramVec) Snapshot() map[string]HistSnapshot {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]HistSnapshot, len(v.m))
	for k, h := range v.m {
		out[k] = h.Snapshot()
	}
	return out
}
