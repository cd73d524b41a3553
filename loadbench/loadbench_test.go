package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ccer-go/ccer/internal/obs"
)

// A stall of one request delays every request queued behind it by the
// rest of the stall: latency counts from the scheduled send, the wait
// shows as waiting for a connection, and the driver is not late.
func TestTimingStartsAtScheduledSend(t *testing.T) {
	const stall, gap = 150 * time.Millisecond, 10 * time.Millisecond
	var stalled atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if stalled.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	ops := make([]Op, 20)
	for i := range ops {
		ops[i] = Op{Method: http.MethodGet, Path: "/", Timed: true, At: time.Duration(i) * gap, Dep: -1, after: -1}
	}
	l := newLoader(srv.URL, 1, nil)
	defer l.close()
	res, _ := l.run(context.Background(), ops, nil)
	if d := res[0].Latency(); d < stall || d > stall+25*time.Millisecond {
		t.Fatalf("stalled request took %v, want about %v", d, stall)
	}
	for i := 1; time.Duration(i)*gap < stall; i++ {
		queued := stall - time.Duration(i)*gap
		r := &res[i]
		if d := r.Latency() - queued; d < 0 || d > 25*time.Millisecond {
			t.Errorf("request %d: latency %v, want the %v it queued behind the stall plus its service", i, r.Latency(), queued)
		}
		if d := r.ConnWait() - queued; d < -time.Millisecond || d > 25*time.Millisecond {
			t.Errorf("request %d: connection wait %v, want about %v", i, r.ConnWait(), queued)
		}
		if r.Lateness() > 5*time.Millisecond {
			t.Errorf("request %d: lateness %v counts the connection wait", i, r.Lateness())
		}
	}
}

// An op waiting for its dependency is not reported late, and an op whose
// dependency failed is not sent.
func TestDependencyWaitIsNotLateness(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/slow":
			time.Sleep(50 * time.Millisecond)
		case "/fail":
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	defer srv.Close()
	ops := []Op{
		{Method: http.MethodGet, Path: "/slow", Dep: -1},
		{Method: http.MethodGet, Path: "/fail", Dep: -1},
		{Method: http.MethodDelete, Path: "/a", Dep: 0},
		{Method: http.MethodDelete, Path: "/b", Dep: 1},
	}
	l := newLoader(srv.URL, 2, nil)
	defer l.close()
	res, _ := l.run(context.Background(), ops, nil)
	if !res[2].Sent || res[2].Dispatch < res[0].Done {
		t.Fatalf("dependent op sent=%v at %v, before its dependency finished at %v", res[2].Sent, res[2].Dispatch, res[0].Done)
	}
	if res[2].Lateness() > 5*time.Millisecond {
		t.Errorf("dependency wait reported as lateness %v", res[2].Lateness())
	}
	if res[3].Sent {
		t.Errorf("op sent although its dependency failed")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 0.99); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if v, err := percentile(xs, 0.5); err != nil || v != 500 {
		t.Fatalf("p50 of 1..1000 = %v, %v; want 500", v, err)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Fatal("p99 reported from 999 samples")
	}
	// Three windows of 1000; a burst in the second moves only its p99.
	seq := make([]float64, 3000)
	for i := range seq {
		seq[i] = float64(i%1000 + 1)
		if i >= 1000 && i < 1100 {
			seq[i] = 1e6
		}
	}
	if v, err := windowed(seq, 0.99); err != nil || v != 990 {
		t.Fatalf("windowed p99 = %v, %v; want 990, the median window's", v, err)
	}
	if _, err := windowed(seq[:999], 0.99); err == nil {
		t.Fatal("windowed p99 reported from 999 samples")
	}
	for n, want := range map[int]float64{10000: 0.999, 1000: 0.99, 999: 0.95, 200: 0.95, 199: 0.9, 100: 0.9, 99: 0.5, 20: 0.5, 19: 0} {
		if got := tailQuantile(n); got != want {
			t.Errorf("tailQuantile(%d) = %v, want %v", n, got, want)
		}
	}
}

// The scrape delta of counters and of histogram sums and counts, parsed
// with promtest.Parse, including a route label holding braces.
func TestPromDelta(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("t_total", "A counter.")
	h := r.HistogramVec("t_seconds", "A histogram.", "algorithm")
	routes := r.CounterVec("t_by_route_total", "By route.", "route")
	scrape := func() series {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		s, err := parseProm(b.String())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	c.Inc()
	h.With("CNC").Observe(100 * time.Millisecond)
	routes.With("DELETE /v1/graphs/{name...}").Inc()
	before := scrape()
	c.Add(2)
	h.With("CNC").Observe(300 * time.Millisecond)
	h.With("UMC").Observe(50 * time.Millisecond)
	routes.With("DELETE /v1/graphs/{name...}").Add(4)
	d := delta(before, scrape())
	near := func(what string, got, want float64) {
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", what, got, want)
		}
	}
	near("counter", d.total("t_total"), 2)
	sums, counts := d.byLabel("t_seconds_sum", "algorithm"), d.byLabel("t_seconds_count", "algorithm")
	near("CNC sum", sums["CNC"], 0.3)
	near("UMC sum", sums["UMC"], 0.05)
	near("CNC count", counts["CNC"], 1)
	near("UMC count", counts["UMC"], 1)
	near("mean", d.mean("t_seconds"), 0.175)
	near("route", d.byLabel("t_by_route_total", "route")["DELETE /v1/graphs/(name...)"], 4)
}

// The seed names the request sequence: the same seed gives the same
// requests at the same times, another seed other requests.
func TestSeedNamesTheRequestSequence(t *testing.T) {
	seq := func(w *workload, seed int64) []Op {
		p, err := newPlan(w, seed)
		if err != nil {
			t.Fatal(err)
		}
		stages, err := p.setupStages([]string{"http://a", "http://b", "http://c"})
		if err != nil {
			t.Fatal(err)
		}
		ops, err := p.phase(p.first, 300, w.rate)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range stages {
			ops = append(ops, s...)
		}
		return ops
	}
	for _, w := range workloads {
		a, b, c := seq(w, 7), seq(w, 7), seq(w, 8)
		if len(a) != len(b) {
			t.Fatalf("%s: %d and %d ops from one seed", w.name, len(a), len(b))
		}
		differs := len(a) != len(c)
		for i := range a {
			if a[i].Method != b[i].Method || a[i].Path != b[i].Path || !bytes.Equal(a[i].Body, b[i].Body) ||
				a[i].At != b[i].At || a[i].Dep != b[i].Dep || a[i].Base != b[i].Base {
				t.Fatalf("%s: op %d differs between two plans of one seed", w.name, i)
			}
			differs = differs || i < len(c) && !bytes.Equal(a[i].Body, c[i].Body)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 give the same requests", w.name)
		}
	}
}

// BENCHMARK.json names the driver's metrics and workloads of record, and
// the command fixes a latency limit for every workload the driver has.
func TestBenchmarkJSONMatchesDriver(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	type def struct{ Name, Unit, Better string }
	var spec struct {
		Command   []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the driver %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if got[i] != (def{w.name, w.unit, w.better}) {
				t.Errorf("%s %d: BENCHMARK.json %+v, driver %+v", kind, i, got[i], w)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	limits := ""
	for i, a := range spec.Command {
		if a == "--limit-ms" && i+1 < len(spec.Command) {
			limits = spec.Command[i+1]
		}
	}
	for _, w := range workloads {
		if _, err := parseLimit(limits, w.name); err != nil {
			t.Errorf("command: %v", err)
		}
	}
}
