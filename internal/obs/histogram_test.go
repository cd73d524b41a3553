package obs

import (
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the bucketing rule: bounds are
// inclusive upper bounds, one past the bound falls into the next
// bucket, and everything beyond the last bound lands in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogramBounds([]int64{100, 200, 400})
	h.Observe(0)                      // bucket 0
	h.Observe(100)                    // bucket 0 (inclusive)
	h.Observe(101)                    // bucket 1
	h.Observe(200)                    // bucket 1
	h.Observe(399)                    // bucket 2
	h.Observe(400)                    // bucket 2
	h.Observe(401)                    // +Inf
	h.Observe(time.Duration(1 << 40)) // +Inf
	h.Observe(time.Duration(-5))      // clamps to 0, bucket 0
	want := []int64{3, 2, 2, 2}       // per-bucket, last is +Inf
	s := h.Snapshot()
	if len(s.Counts) != len(want) {
		t.Fatalf("got %d buckets, want %d", len(s.Counts), len(want))
	}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 9 {
		t.Errorf("count = %d, want 9", s.Count)
	}
	if wantSum := int64(0 + 100 + 101 + 200 + 399 + 400 + 401 + 1<<40 + 0); s.Sum != wantSum {
		t.Errorf("sum = %d, want %d", s.Sum, wantSum)
	}
}

// TestHistogramQuantile checks the interpolated quantile estimates on a
// uniform fill: 100 observations spread evenly through one bucket must
// put p50 near the bucket's middle.
func TestHistogramQuantile(t *testing.T) {
	h := NewHistogramBounds([]int64{1000, 2000, 4000})
	// 100 observations uniform in (1000, 2000]: all land in bucket 1.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(1000 + i*10))
	}
	s := h.Snapshot()
	p50 := s.Quantile(0.50)
	if p50 < 1400 || p50 > 1600 {
		t.Errorf("p50 = %v, want ~1500ns", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < 1900 || p99 > 2000 {
		t.Errorf("p99 = %v, want ~1990ns", p99)
	}
	// Quantiles of an empty histogram and of the +Inf bucket.
	if q := (HistSnapshot{}).Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
	overflow := NewHistogramBounds([]int64{10})
	overflow.Observe(1 << 30)
	if q := overflow.Snapshot().Quantile(0.5); q != 10 {
		t.Errorf("+Inf quantile = %v, want the last finite bound (10ns)", q)
	}
}

// TestHistogramQuantileAcrossBuckets spreads mass over several buckets
// and checks the rank lands in the right one.
func TestHistogramQuantileAcrossBuckets(t *testing.T) {
	h := NewHistogramBounds([]int64{100, 200, 300, 400})
	for i := 0; i < 10; i++ {
		h.Observe(50)  // bucket 0
		h.Observe(150) // bucket 1
		h.Observe(250) // bucket 2
		h.Observe(350) // bucket 3
	}
	s := h.Snapshot()
	cases := []struct {
		q      float64
		lo, hi time.Duration
	}{
		{0.25, 0, 100},
		{0.50, 100, 200},
		{0.75, 200, 300},
		{1.00, 300, 400},
	}
	for _, c := range cases {
		got := s.Quantile(c.q)
		if got < c.lo || got > c.hi {
			t.Errorf("q=%g: got %v, want in [%v, %v]", c.q, got, c.lo, c.hi)
		}
	}
}

// TestHistogramNilSafety: every method must be inert on nil.
func TestHistogramNilSafety(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second)
	h.Since(time.Now())
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram snapshot not empty")
	}
	var v *HistogramVec
	v.With("x").Observe(time.Second)
	if v.Snapshot() != nil {
		t.Fatal("nil vec snapshot not nil")
	}
}
