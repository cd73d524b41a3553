package obs

import (
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryIdempotentRegistration: registering the same name twice
// returns the same instance, so packages share metrics without
// coordination.
func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "")
	c2 := r.Counter("x_total", "other help")
	if c1 != c2 {
		t.Fatal("re-registered counter is a different instance")
	}
	h1 := r.Histogram("lat_seconds", "")
	h2 := r.Histogram("lat_seconds", "")
	if h1 != h2 {
		t.Fatal("re-registered histogram is a different instance")
	}
	v1 := r.HistogramVec("vec_seconds", "", "k")
	v2 := r.HistogramVec("vec_seconds", "", "k")
	if v1 != v2 {
		t.Fatal("re-registered histogram vec is a different instance")
	}
}

// TestDisabledRegistry: the nil registry and every handle it returns
// must be inert, including snapshotting and exposition.
func TestDisabledRegistry(t *testing.T) {
	var r *Registry
	r.Counter("a_total", "").Add(5)
	r.CounterVec("b_total", "", "k").With("v").Inc()
	r.Histogram("c_seconds", "").Observe(time.Second)
	r.HistogramVec("d_seconds", "", "k").With("v").Since(time.Now())
	r.CounterFunc("e_total", "", func() int64 { return 1 })
	r.GaugeFunc("f", "", func() float64 { return 1 })
	r.LabeledCounterFunc("g_total", "", "k", func() map[string]int64 { return nil })
	if r.Uptime() != 0 {
		t.Fatal("nil registry reports uptime")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry exposition wrote %q, err %v", sb.String(), err)
	}
	if v := r.Values(""); v != nil {
		t.Fatalf("nil registry read out %v", v)
	}
	var c *Counter
	c.Inc()
	c.Add(10)
	if c.Load() != 0 {
		t.Fatal("nil counter holds a value")
	}
}

// TestRegistryConcurrentHammer drives counters, vecs and histograms
// from many goroutines while snapshots, read-outs and expositions run,
// relying on -race to flag unsynchronized access, and on the totals to
// prove no lost updates.
func TestRegistryConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total", "")
	vec := r.CounterVec("by_label_total", "", "k")
	h := r.Histogram("lat_seconds", "")
	hv := r.HistogramVec("lat_by_label_seconds", "", "k")
	r.GaugeFunc("g", "", func() float64 { return 1.5 })
	r.LabeledCounterFunc("ext_total", "", "k", func() map[string]int64 {
		return map[string]int64{"a": 1, "b": 2}
	})

	const workers = 8
	const perWorker = 2000
	labels := []string{"alpha", "beta", "gamma", "delta"}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				lbl := labels[(w+i)%len(labels)]
				vec.With(lbl).Inc()
				h.Observe(time.Duration(i) * time.Microsecond)
				hv.With(lbl).Observe(time.Duration(i) * time.Microsecond)
				if i%500 == 0 {
					_ = r.WritePrometheus(io.Discard)
					_ = r.Values("")
					_ = h.Snapshot()
					_ = vec.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()

	if got := c.Load(); got != workers*perWorker {
		t.Fatalf("counter lost updates: %d, want %d", got, workers*perWorker)
	}
	var vecSum int64
	for _, v := range vec.Snapshot() {
		vecSum += v
	}
	if vecSum != workers*perWorker {
		t.Fatalf("vec lost updates: %d, want %d", vecSum, workers*perWorker)
	}
	if s := h.Snapshot(); s.Count != workers*perWorker {
		t.Fatalf("histogram lost updates: %d, want %d", s.Count, workers*perWorker)
	}
	var hvSum int64
	for _, s := range hv.Snapshot() {
		hvSum += s.Count
	}
	if hvSum != workers*perWorker {
		t.Fatalf("histogram vec lost updates: %d, want %d", hvSum, workers*perWorker)
	}
}

// TestRegistryValues: the read-out holds every counter and gauge family
// under the prefix, keyed without it, and leaves histograms and other
// prefixes out.
func TestRegistryValues(t *testing.T) {
	r := NewRegistry()
	r.Counter("p_owned_total", "").Add(3)
	r.CounterFunc("p_read_total", "", func() int64 { return 4 })
	r.GaugeFunc("p_level", "", func() float64 { return 1.5 })
	r.CounterVec("p_vec_total", "", "k").With("a").Add(2)
	r.CounterVec("p_empty_total", "", "k")
	r.LabeledGaugeFunc("p_labeled", "", "k", func() map[string]int64 { return map[string]int64{"b": 1} })
	r.Histogram("p_lat_seconds", "").Observe(time.Millisecond)
	r.HistogramVec("p_vec_seconds", "", "k").With("a").Observe(time.Millisecond)
	r.Counter("q_other_total", "").Inc()

	got := r.Values("p_")
	want := map[string]any{
		"owned_total": int64(3),
		"read_total":  int64(4),
		"level":       1.5,
		"vec_total":   map[string]int64{"a": 2},
		"empty_total": map[string]int64{},
		"labeled":     map[string]int64{"b": 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Values = %#v, want %#v", got, want)
	}
}
