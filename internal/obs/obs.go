// Package obs is the observability layer of the module: a
// dependency-free, lock-cheap metrics registry (atomic counters,
// gauges, fixed-bucket latency histograms with quantile estimation), a
// lightweight span tracer with a bounded ring of recent request traces
// and slow-request structured logging, and Prometheus text exposition
// over everything registered.
//
// Every type in the package is nil-receiver safe: a nil *Registry, nil
// *Counter, nil *Histogram, nil *Trace and nil *Tracer are all inert
// no-ops, so instrumented code paths need no branches — construction
// decides whether observability is on, and the per-observation cost of
// "off" is a nil check. Observations on live metrics are single atomic
// adds (histograms: one binary search over a small fixed bucket table
// plus two adds), cheap enough for hot paths.
package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value (0 on nil).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// CounterVec is a set of counters keyed by one label value, created on
// first use. Label cardinality is the caller's responsibility; every
// user in this module draws labels from small fixed sets (routes,
// algorithm names, weight families, status classes).
type CounterVec struct {
	mu sync.RWMutex
	m  map[string]*Counter
}

// With returns the counter for the label value, creating it if needed.
func (v *CounterVec) With(label string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	c := v.m[label]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.m[label]; c == nil {
		c = &Counter{}
		v.m[label] = c
	}
	return c
}

// Snapshot copies the current label -> value mapping.
func (v *CounterVec) Snapshot() map[string]int64 {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]int64, len(v.m))
	for k, c := range v.m {
		out[k] = c.Load()
	}
	return out
}

// Metric kinds, used by the Prometheus exposition.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// family is one registered metric family: exactly one of the value
// sources is set.
type family struct {
	name  string
	help  string
	kind  string
	label string // label key for vec/func-map families

	counter   *Counter
	counterFn func() int64
	gaugeFn   func() float64
	labeledFn func() map[string]int64 // counter or gauge samples per label
	vec       *CounterVec
	hist      *Histogram
	histVec   *HistogramVec
}

// Registry holds named metric families. Registration is idempotent by
// name: re-registering an owned counter/histogram/vec returns the
// existing instance, so packages can share one registry without
// coordination. All methods are safe for concurrent use and inert on a
// nil receiver.
type Registry struct {
	start time.Time
	mu    sync.RWMutex
	fams  map[string]*family
}

// NewRegistry returns an empty registry; its uptime clock starts now.
func NewRegistry() *Registry {
	return &Registry{start: time.Now(), fams: map[string]*family{}}
}

// Uptime is the time since the registry was created (0 on nil).
func (r *Registry) Uptime() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.start)
}

// register installs fam under its name unless one already exists, and
// returns the installed family.
func (r *Registry) register(fam *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if have, ok := r.fams[fam.name]; ok {
		return have
	}
	r.fams[fam.name] = fam
	return fam
}

// Counter registers (or returns the existing) owned counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	fam := r.register(&family{name: name, help: help, kind: kindCounter, counter: &Counter{}})
	return fam.counter
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time (for counters owned by another subsystem).
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	if r == nil {
		return
	}
	r.register(&family{name: name, help: help, kind: kindCounter, counterFn: fn})
}

// GaugeFunc registers a gauge read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(&family{name: name, help: help, kind: kindGauge, gaugeFn: fn})
}

// LabeledCounterFunc registers a labeled counter family whose samples
// (label value -> count) are read from fn at exposition time.
func (r *Registry) LabeledCounterFunc(name, help, label string, fn func() map[string]int64) {
	if r == nil {
		return
	}
	r.register(&family{name: name, help: help, kind: kindCounter, label: label, labeledFn: fn})
}

// LabeledGaugeFunc registers a labeled gauge family whose samples
// (label value -> level) are read from fn at exposition time — e.g. a
// cluster router's per-backend health flags.
func (r *Registry) LabeledGaugeFunc(name, help, label string, fn func() map[string]int64) {
	if r == nil {
		return
	}
	r.register(&family{name: name, help: help, kind: kindGauge, label: label, labeledFn: fn})
}

// CounterVec registers (or returns the existing) owned labeled counter
// family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if r == nil {
		return nil
	}
	fam := r.register(&family{name: name, help: help, kind: kindCounter, label: label,
		vec: &CounterVec{m: map[string]*Counter{}}})
	return fam.vec
}

// Histogram registers (or returns the existing) owned latency histogram
// with the default bucket layout.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	fam := r.register(&family{name: name, help: help, kind: kindHistogram, hist: NewHistogram()})
	return fam.hist
}

// HistogramVec registers (or returns the existing) owned labeled
// histogram family with the default bucket layout.
func (r *Registry) HistogramVec(name, help, label string) *HistogramVec {
	if r == nil {
		return nil
	}
	fam := r.register(&family{name: name, help: help, kind: kindHistogram, label: label,
		histVec: NewHistogramVec()})
	return fam.histVec
}

// families returns a name-sorted snapshot of the registered families.
func (r *Registry) families() []*family {
	r.mu.RLock()
	out := make([]*family, 0, len(r.fams))
	for _, fam := range r.fams {
		out = append(out, fam)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Values reads the current value of every counter and gauge family
// whose name starts with prefix, keyed by the name without it: an int64
// for a counter, a float64 for a gauge, and a map of label value to
// sample for a labeled family. Histograms are left out. It is the one
// read-out behind a JSON metrics view, so a family registered once
// appears there and in the Prometheus exposition alike. A nil registry
// reads nothing.
func (r *Registry) Values(prefix string) map[string]any {
	if r == nil {
		return nil
	}
	out := map[string]any{}
	for _, fam := range r.families() {
		key, ok := strings.CutPrefix(fam.name, prefix)
		if !ok {
			continue
		}
		switch {
		case fam.counter != nil:
			out[key] = fam.counter.Load()
		case fam.counterFn != nil:
			out[key] = fam.counterFn()
		case fam.gaugeFn != nil:
			out[key] = fam.gaugeFn()
		case fam.labeledFn != nil:
			out[key] = fam.labeledFn()
		case fam.vec != nil:
			out[key] = fam.vec.Snapshot()
		}
	}
	return out
}
