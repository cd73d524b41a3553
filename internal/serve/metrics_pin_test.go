package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/ccer-go/ccer/internal/cluster"
	"github.com/ccer-go/ccer/internal/durable/crashtest"
	"github.com/ccer-go/ccer/internal/obs/promtest"
	"github.com/ccer-go/ccer/internal/resilience"
	"github.com/ccer-go/ccer/internal/serve"
)

// JSON kinds of a /metrics key.
const (
	kindNumber = "number"
	kindObject = "object"
)

// erserveJSONKeys is the JSON /metrics key set consumers read, each
// with its JSON kind.
var erserveJSONKeys = map[string]string{
	"uptime_seconds": kindNumber, "requests_total": kindNumber, "errors_total": kindNumber,
	"graphs_stored": kindNumber, "graphs_created_total": kindNumber,
	"graph_resident_bytes": kindObject,
	"match_requests_total": kindNumber, "matchings_run_total": kindNumber,
	"sweeps_created_total": kindNumber,
	"cache_hits_total":     kindNumber, "cache_misses_total": kindNumber,
	"cache_evictions_total": kindNumber, "cache_size": kindNumber, "cache_capacity": kindNumber,
	"cache_hit_rate": kindNumber,
	"jobs_queued":    kindNumber, "jobs_running": kindNumber, "jobs_live": kindNumber,
	"jobs_done": kindNumber, "jobs_failed": kindNumber, "jobs_cancelled": kindNumber,
	"generate_ns_total": kindObject, "generates_total": kindObject,
	"generate_family_ns_total": kindObject, "generates_family_total": kindObject,
	"generate_pairs_visited_total": kindObject, "generate_pairs_skipped_total": kindObject,
	"generate_skip_ratio": kindNumber,
	"repcache_hits_total": kindNumber, "repcache_misses_total": kindNumber,
	"repcache_evictions_total": kindNumber, "repcache_entries": kindNumber,
	"journal_records_total": kindNumber, "recovery_ns": kindNumber,
	"snapshot_bytes": kindNumber, "compactions_total": kindNumber,
	"requests_by_class_total": kindObject,
	"http_request_p50_ms":     kindNumber, "http_request_p95_ms": kindNumber,
	"http_request_p99_ms":   kindNumber,
	"admission_queue_depth": kindNumber, "admission_inflight": kindNumber,
	"admitted_total": kindNumber, "shed_total": kindObject,
	"coalesce_hits_total": kindNumber, "request_timeout_total": kindObject,
	"client_disconnects_total": kindNumber,
}

// erserveExtraKeys are keys the JSON view may carry beyond
// erserveJSONKeys. Entries may be added, never removed.
var erserveExtraKeys = map[string]string{
	"http_requests_by_route_total": kindObject,
	"recovery_seconds":             kindNumber,
}

// erserveFamilies is the Prometheus view of a durable erserve after
// the pinned sequence, one "name type label-key help" line per family
// in exposition order; the label key is "-" for a family without
// labeled samples.
var erserveFamilies = []string{
	"ccer_admission_inflight gauge - Admission slots currently held.",
	"ccer_admission_queue_depth gauge - Requests waiting in the admission queue.",
	"ccer_admitted_total counter - Computations granted an admission slot.",
	"ccer_cache_capacity gauge - Match result cache capacity.",
	"ccer_cache_evictions_total counter - Match result cache evictions.",
	"ccer_cache_hits_total counter - Match result cache hits.",
	"ccer_cache_misses_total counter - Match result cache misses.",
	"ccer_cache_size gauge - Match result cache entries.",
	"ccer_client_disconnects_total counter - Requests answered 499: the client disconnected mid-request. Not a server error class.",
	"ccer_coalesce_hits_total counter - Requests served by attaching to an identical in-flight computation.",
	"ccer_compactions_total counter - Durable-store manifest rewrites.",
	"ccer_errors_total counter - HTTP responses with status >= 400.",
	"ccer_generate_dataset_ns_total counter dataset Cumulative similarity-graph generation nanoseconds, by dataset.",
	"ccer_generate_dataset_total counter dataset Similarity-graph generations, by dataset.",
	"ccer_generate_ns_total counter family Cumulative similarity-graph generation nanoseconds, by weight family.",
	"ccer_generate_pairs_skipped_total counter family Kernel blocks provably skipped by the lossless filters, by weight family.",
	"ccer_generate_pairs_visited_total counter family Kernel blocks computed during generation, by weight family.",
	"ccer_generate_seconds histogram family Latency of one similarity-graph generation, by weight family.",
	"ccer_generates_total counter family Similarity-graph generations, by weight family.",
	"ccer_graph_resident_bytes gauge component Resident bytes of the stored graphs, by component: V1 rows, and V2 rows and pair lookups once built.",
	"ccer_graphs_created_total counter - Graphs committed to the store.",
	"ccer_graphs_stored gauge - Graphs currently in the store.",
	"ccer_http_request_seconds histogram - HTTP request wall time.",
	"ccer_http_requests_by_class_total counter class HTTP responses by status class.",
	"ccer_http_requests_by_route_total counter route HTTP requests by mux route pattern.",
	"ccer_jobs_cancelled_total counter - Sweep jobs cancelled.",
	"ccer_jobs_done_total counter - Sweep jobs finished successfully.",
	"ccer_jobs_failed_total counter - Sweep jobs finished with an error.",
	"ccer_jobs_queued gauge - Sweep jobs waiting to run.",
	"ccer_jobs_running gauge - Sweep jobs currently executing.",
	"ccer_journal_fsync_seconds histogram - Latency of one journal record append+fsync.",
	"ccer_journal_records_total counter - Journal records replayed at boot plus appended since.",
	"ccer_match_requests_total counter - POST /v1/match requests.",
	"ccer_match_seconds histogram algorithm Latency of one matching run, by algorithm.",
	"ccer_matchings_run_total counter - Matchings executed (cache misses).",
	"ccer_recovery_seconds gauge - Wall time of the boot-time recovery.",
	"ccer_repcache_entries gauge - Representation cache resident entries.",
	"ccer_repcache_evictions_total counter - Representation cache evictions.",
	"ccer_repcache_hits_total counter - Representation cache hits.",
	"ccer_repcache_misses_total counter - Representation cache misses.",
	"ccer_request_timeout_total counter route Requests that exceeded their deadline (HTTP 504), by route.",
	"ccer_requests_total counter - HTTP requests received.",
	"ccer_shed_total counter reason Requests shed by the overload-protection layer, by machine-readable reason.",
	"ccer_snapshot_bytes gauge - On-disk size of the committed snapshot state.",
	"ccer_snapshot_write_seconds histogram - Latency of one durable content-file write (tmp, fsync, rename, dir sync).",
	"ccer_sweep_seconds histogram - Latency of one sweep job execution.",
	"ccer_sweeps_created_total counter - Sweep jobs accepted.",
	"ccer_uptime_seconds gauge - Seconds since the server started.",
}

// routerJSONKeys is the router's JSON /metrics key set.
var routerJSONKeys = map[string]string{
	"requests_total": kindNumber, "hedges_total": kindNumber,
	"hedge_wins_total": kindNumber, "failovers_total": kindNumber,
	"write_fan_misses_total": kindNumber, "cluster": kindObject,
}

// routerExtraKeys are keys the router's JSON view may carry beyond
// routerJSONKeys. Entries may be added, never removed.
var routerExtraKeys = map[string]string{
	"backends": kindNumber, "backend_healthy": kindObject,
	"breaker_opens_total": kindObject, "probe_failures_total": kindObject,
	"repair_scans_total": kindNumber, "repair_graphs_repaired_total": kindNumber,
	"repair_bytes_total": kindNumber, "repair_failures_total": kindNumber,
	"repair_diverged_graphs": kindNumber, "repair_divergence": kindObject,
}

// routerFamilies is the router's Prometheus view, as erserveFamilies.
var routerFamilies = []string{
	"ccer_router_backend_healthy gauge backend Per-backend routability: 1 when ready and the circuit allows traffic.",
	"ccer_router_backends gauge - Live backends.",
	"ccer_router_breaker_opens_total counter backend Circuit-breaker open transitions per backend.",
	"ccer_router_failovers_total counter - Attempts moved to the next replica after a failure.",
	"ccer_router_hedge_wins_total counter - Reads won by a hedged or failed-over attempt.",
	"ccer_router_hedges_total counter - Hedged duplicate reads fired after the hedge delay.",
	"ccer_router_probe_failures_total counter backend Failed /readyz probes per backend.",
	"ccer_router_read_seconds histogram - Routed read latency (feeds the adaptive hedge delay).",
	"ccer_router_repair_bytes_total counter - Edge-list bytes streamed to stale replicas by the repair loop.",
	"ccer_router_repair_diverged_graphs gauge - Graphs with at least one reachable stale replica, per the last repair scan (0 = converged).",
	"ccer_router_repair_divergence gauge - Reachable stale replicas per graph, per the last repair scan.",
	"ccer_router_repair_failures_total counter - Repair attempts that failed (retried on the next scan).",
	"ccer_router_repair_graphs_repaired_total counter - Stale replica copies converged by streaming a peer's edge list or propagating a tombstone.",
	"ccer_router_repair_scans_total counter - Anti-entropy scans run (periodic, fan-miss-kicked, rejoin-kicked, or elasticity-kicked).",
	"ccer_router_requests_total counter - Requests received by the cluster router.",
	"ccer_router_write_fan_misses_total counter - Write fan-out attempts that failed on one replica while another succeeded (replica divergence until the node is rebuilt).",
}

// metricsClient sends the pinned sequence's requests and counts them,
// so requests_total is fixed however many polls a sweep needs.
type metricsClient struct {
	t    *testing.T
	base string
	sent int
}

func (c *metricsClient) do(method, path string, body any, out any) int {
	c.t.Helper()
	c.sent++
	return doJSON(c.t, method, c.base+path, body, out)
}

// get fetches path raw, returning the status and body.
func (c *metricsClient) get(path string) (int, []byte) {
	c.t.Helper()
	c.sent++
	resp, err := http.Get(c.base + path)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// jsonView fetches the JSON /metrics view, decoded with numbers kept
// exact.
func (c *metricsClient) jsonView() map[string]any {
	c.t.Helper()
	code, raw := c.get("/metrics")
	if code != http.StatusOK {
		c.t.Fatalf("JSON /metrics: status %d", code)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		c.t.Fatalf("JSON /metrics: %v\n%s", err, raw)
	}
	return m
}

// promView fetches the Prometheus view as "name type label-key help"
// lines in family order.
func (c *metricsClient) promView() []string {
	c.t.Helper()
	code, raw := c.get("/metrics?format=prometheus")
	if code != http.StatusOK {
		c.t.Fatalf("Prometheus /metrics: status %d", code)
	}
	scrape, err := promtest.Parse(string(raw))
	if err != nil {
		c.t.Fatalf("exposition does not parse: %v", err)
	}
	out := make([]string, 0, len(scrape.Order))
	for _, name := range scrape.Order {
		fam := scrape.Families[name]
		keys := map[string]bool{}
		for _, smp := range fam.Samples {
			for _, pair := range strings.Split(smp.Labels, ",") {
				if k, _, ok := strings.Cut(pair, "="); ok && k != "le" {
					keys[k] = true
				}
			}
		}
		label := "-"
		if len(keys) > 0 {
			names := make([]string, 0, len(keys))
			for k := range keys {
				names = append(names, k)
			}
			sort.Strings(names)
			label = strings.Join(names, ",")
		}
		out = append(out, strings.Join([]string{name, fam.Type, label, fam.Help}, " "))
	}
	return out
}

// checkKeys asserts that the view holds every pinned key with its kind,
// and nothing outside the pinned and extra keys.
func checkKeys(t *testing.T, view map[string]any, pinned, extra map[string]string) {
	t.Helper()
	kindOf := func(v any) string {
		switch v.(type) {
		case json.Number:
			return kindNumber
		case map[string]any:
			return kindObject
		}
		return "other"
	}
	for key, want := range pinned {
		v, ok := view[key]
		if !ok {
			t.Errorf("key %q missing", key)
			continue
		}
		if got := kindOf(v); got != want {
			t.Errorf("key %q is a JSON %s, want %s", key, got, want)
		}
	}
	for key, v := range view {
		if _, ok := pinned[key]; ok {
			continue
		}
		want, ok := extra[key]
		if !ok {
			t.Errorf("unexpected key %q", key)
			continue
		}
		if got := kindOf(v); got != want {
			t.Errorf("extra key %q is a JSON %s, want %s", key, got, want)
		}
	}
}

// checkValues asserts the values the sequence fixes. A want of type
// float64 is a number, a map[string]float64 an object of numbers.
func checkValues(t *testing.T, view map[string]any, want map[string]any) {
	t.Helper()
	num := func(v any) float64 {
		n, _ := v.(json.Number)
		f, err := n.Float64()
		if err != nil {
			t.Fatalf("not a number: %v", v)
		}
		return f
	}
	for key, w := range want {
		switch w := w.(type) {
		case float64:
			if got := num(view[key]); got != w {
				t.Errorf("%s = %v, want %v", key, got, w)
			}
		case map[string]float64:
			obj, _ := view[key].(map[string]any)
			got := map[string]float64{}
			for k, v := range obj {
				got[k] = num(v)
			}
			if len(got) != len(w) {
				t.Errorf("%s = %v, want %v", key, got, w)
				continue
			}
			for k, v := range w {
				if g, ok := got[k]; !ok || g != v {
					t.Errorf("%s = %v, want %v", key, got, w)
					break
				}
			}
		}
	}
}

func checkFamilies(t *testing.T, got, want []string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("Prometheus families changed:\ngot:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestMetricsViewsPinned pins what consumers of both /metrics views see
// on erserve and on the cluster router: the JSON key set with each
// key's kind, the values a fixed request sequence determines, and the
// Prometheus families with their types, HELP text and label keys.
func TestMetricsViewsPinned(t *testing.T) {
	t.Run("erserve", func(t *testing.T) {
		faults := resilience.NewFaults()
		srv, err := serve.New(serve.Config{
			DataDir:      "data",
			DataFS:       crashtest.NewMemFS(),
			JobWorkers:   1,
			MatchTimeout: time.Second,
			Faults:       faults,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer closeServer(t, srv, ts)
		c := &metricsClient{t: t, base: ts.URL}

		c.sent++
		generateD2(t, ts.URL, "d2")
		if code := c.do(http.MethodPost, "/v1/graphs", map[string]any{
			"name": "fam", "dataset": "D2", "seed": 7, "scale": 0.02, "family": "SB-SYN",
		}, nil); code != http.StatusCreated {
			t.Fatalf("family generate: status %d", code)
		}
		match := map[string]any{"graph": "d2", "algorithms": []string{"UMC"}, "threshold": 0.5}
		for range 2 { // a miss, then a hit
			if code := c.do(http.MethodPost, "/v1/match", match, nil); code != http.StatusOK {
				t.Fatalf("match: status %d", code)
			}
		}
		faults.Set("match", time.Minute, nil, 1)
		if code := c.do(http.MethodPost, "/v1/match", map[string]any{
			"graph": "d2", "algorithms": []string{"CNC"}, "threshold": 0.5,
		}, nil); code != http.StatusGatewayTimeout {
			t.Fatalf("stalled match: status %d, want 504", code)
		}
		var sweep sweepRespJSON
		if code := c.do(http.MethodPost, "/v1/sweeps", map[string]any{
			"graph": "d2", "algorithms": []string{"UMC"}, "repeats": 1,
		}, &sweep); code != http.StatusAccepted {
			t.Fatalf("sweep: status %d", code)
		}
		for deadline := time.Now().Add(30 * time.Second); sweep.State != "done"; {
			if time.Now().After(deadline) {
				t.Fatalf("sweep stuck in %q (%s)", sweep.State, sweep.Error)
			}
			time.Sleep(5 * time.Millisecond)
			if code := c.do(http.MethodGet, "/v1/sweeps/"+sweep.ID, nil, &sweep); code != http.StatusOK {
				t.Fatalf("sweep get: status %d", code)
			}
		}

		// The stored graphs hold their V1 rows, 12 bytes an edge plus
		// 4(n1+1) of offsets. UMC reads only those rows, and the stalled
		// CNC never ran, so no graph has built its V2 side or a pair
		// lookup.
		var listing struct {
			Graphs []graphInfoJSON `json:"graphs"`
		}
		if code := c.do(http.MethodGet, "/v1/graphs", nil, &listing); code != http.StatusOK {
			t.Fatalf("list: status %d", code)
		}
		v1Rows := 0.0
		for _, g := range listing.Graphs {
			v1Rows += float64(12*g.Edges + 4*(g.N1+1))
		}

		view := c.jsonView()
		checkKeys(t, view, erserveJSONKeys, erserveExtraKeys)
		sent := float64(c.sent)
		checkValues(t, view, map[string]any{
			"requests_total":               sent,
			"errors_total":                 1.0,
			"requests_by_class_total":      map[string]float64{"2xx": sent - 2, "5xx": 1},
			"request_timeout_total":        map[string]float64{"POST /v1/match": 1},
			"client_disconnects_total":     0.0,
			"graphs_stored":                17.0,
			"graphs_created_total":         17.0,
			"graph_resident_bytes":         map[string]float64{"v1_rows": v1Rows, "v2_rows": 0, "pair_weights": 0},
			"match_requests_total":         3.0,
			"matchings_run_total":          1.0,
			"sweeps_created_total":         1.0,
			"cache_hits_total":             1.0,
			"cache_misses_total":           2.0,
			"cache_hit_rate":               1.0 / 3,
			"cache_size":                   1.0,
			"jobs_queued":                  0.0,
			"jobs_running":                 0.0,
			"jobs_live":                    0.0,
			"jobs_done":                    1.0,
			"jobs_failed":                  0.0,
			"jobs_cancelled":               0.0,
			"generates_total":              map[string]float64{"D2": 2},
			"generates_family_total":       map[string]float64{"SB-SYN": 2},
			"generate_pairs_visited_total": map[string]float64{"SB-SYN": 1706},
			"generate_pairs_skipped_total": map[string]float64{"SB-SYN": 569},
			"generate_skip_ratio":          569.0 / (1706 + 569),
			"shed_total": map[string]float64{
				"degraded": 0, "queue_full": 0, "queue_timeout": 0, "sweep_backlog": 0},
			"coalesce_hits_total": 0.0,
		})
		checkFamilies(t, c.promView(), erserveFamilies)
	})

	t.Run("router", func(t *testing.T) {
		var bases []string
		for range 2 {
			srv, err := serve.New(serve.Config{})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(func() {
				ts.Close()
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				_ = srv.Close(ctx)
			})
			bases = append(bases, ts.URL)
		}
		rt, err := cluster.NewRouter(cluster.RouterConfig{
			Backends:       bases,
			HedgeAfter:     time.Minute,
			RepairInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		front := httptest.NewServer(rt.Handler())
		defer func() {
			front.Close()
			rt.Close()
		}()
		c := &metricsClient{t: t, base: front.URL}
		if code := c.do(http.MethodPost, "/v1/graphs", map[string]any{
			"name": "alpha", "dataset": "D2", "seed": 42, "scale": 0.02,
		}, nil); code != http.StatusCreated {
			t.Fatalf("generate: status %d", code)
		}
		if code := c.do(http.MethodPost, "/v1/match", map[string]any{
			"graph": "alpha", "algorithms": []string{"UMC"}, "threshold": 0.5,
		}, nil); code != http.StatusOK {
			t.Fatalf("match: status %d", code)
		}

		view := c.jsonView()
		checkKeys(t, view, routerJSONKeys, routerExtraKeys)
		checkValues(t, view, map[string]any{
			"requests_total":         float64(c.sent),
			"hedges_total":           0.0,
			"hedge_wins_total":       0.0,
			"failovers_total":        0.0,
			"write_fan_misses_total": 0.0,
		})
		checkFamilies(t, c.promView(), routerFamilies)
	})
}
