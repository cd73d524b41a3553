// Observability tests: the Prometheus exposition (structure, coverage,
// monotonicity across scrapes), the per-algorithm match histograms, the
// trace endpoint, content negotiation on /metrics, the degraded health
// check, and the instrumentation-overhead benchmarks the CI job records.
package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ccer-go/ccer"
	"github.com/ccer-go/ccer/internal/durable"
	"github.com/ccer-go/ccer/internal/durable/crashtest"
	"github.com/ccer-go/ccer/internal/obs"
	"github.com/ccer-go/ccer/internal/obs/promtest"
	"github.com/ccer-go/ccer/internal/serve"
)

// scrapeProm pulls /metrics in the Prometheus exposition format and runs
// it through the validating parser, so every test that scrapes also
// checks that each line parses and no family or series repeats.
func scrapeProm(t *testing.T, base string) *promtest.Scrape {
	t.Helper()
	resp, err := http.Get(base + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prometheus scrape: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("prometheus scrape content type = %q, want %q", ct, obs.ContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	s, err := promtest.Parse(string(raw))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\npayload:\n%s", err, raw)
	}
	return s
}

// TestPrometheusScrapeRoutePatterns: after a GET and a DELETE of
// /v1/graphs/{name}, the route label holds the mux pattern's braces
// inside its quoted value; the scrape must still parse, with the label
// block kept raw.
func TestPrometheusScrapeRoutePatterns(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	generateD2(t, ts.URL, "d2")
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/graphs/d2", nil, nil); code != http.StatusOK {
		t.Fatalf("get: status %d", code)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/graphs/d2", nil, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	routes := map[string]float64{}
	for _, smp := range scrapeProm(t, ts.URL).Families["ccer_http_requests_by_route_total"].Samples {
		routes[smp.Labels] = smp.Value
	}
	for _, want := range []string{`route="GET /v1/graphs/{name...}"`, `route="DELETE /v1/graphs/{name...}"`} {
		if routes[want] != 1 {
			t.Errorf("series %s = %v, want 1 (have %v)", want, routes[want], routes)
		}
	}
}

// TestPrometheusScrape is the exposition acceptance test: after a
// generate + match workload on a durable server, the Prometheus view
// must parse cleanly, cover every counter the JSON /metrics reports,
// include the four required latency histograms, and stay monotonic
// between two scrapes.
func TestPrometheusScrape(t *testing.T) {
	mem := crashtest.NewMemFS()
	srv, ts := startDurable(t, mem)
	defer closeServer(t, srv, ts)
	generateD2(t, ts.URL, "d2")
	var mresp matchRespJSON
	doJSON(t, http.MethodPost, ts.URL+"/v1/match", map[string]any{
		"graph": "d2", "algorithms": []string{"UMC"}, "threshold": 0.5,
	}, &mresp)

	first := scrapeProm(t, ts.URL)

	// Every counter of the JSON /metrics response, plus the new
	// histograms, must be present under its ccer_ name.
	wantType := map[string]string{
		"ccer_requests_total":               "counter",
		"ccer_errors_total":                 "counter",
		"ccer_graphs_created_total":         "counter",
		"ccer_match_requests_total":         "counter",
		"ccer_matchings_run_total":          "counter",
		"ccer_uptime_seconds":               "gauge",
		"ccer_graphs_stored":                "gauge",
		"ccer_cache_hits_total":             "counter",
		"ccer_cache_misses_total":           "counter",
		"ccer_cache_evictions_total":        "counter",
		"ccer_jobs_queued":                  "gauge",
		"ccer_jobs_done_total":              "counter",
		"ccer_repcache_hits_total":          "counter",
		"ccer_journal_records_total":        "counter",
		"ccer_recovery_seconds":             "gauge",
		"ccer_snapshot_bytes":               "gauge",
		"ccer_generate_ns_total":            "counter",
		"ccer_generates_total":              "counter",
		"ccer_http_request_seconds":         "histogram",
		"ccer_match_seconds":                "histogram",
		"ccer_generate_seconds":             "histogram",
		"ccer_journal_fsync_seconds":        "histogram",
		"ccer_snapshot_write_seconds":       "histogram",
		"ccer_http_requests_by_class_total": "counter",
		"ccer_admission_queue_depth":        "gauge",
		"ccer_admission_inflight":           "gauge",
		"ccer_admitted_total":               "counter",
		"ccer_shed_total":                   "counter",
		"ccer_coalesce_hits_total":          "counter",
	}
	for name, typ := range wantType {
		fam := first.Families[name]
		if fam == nil {
			t.Errorf("family %s missing from exposition", name)
			continue
		}
		if fam.Type != typ {
			t.Errorf("family %s is %s, want %s", name, fam.Type, typ)
		}
		if len(fam.Samples) == 0 {
			t.Errorf("family %s has no samples", name)
		}
	}

	// The workload above must have landed in the required histograms.
	for _, name := range []string{
		"ccer_http_request_seconds", "ccer_match_seconds",
		"ccer_generate_seconds", "ccer_journal_fsync_seconds",
	} {
		if histCount(first, name) == 0 {
			t.Errorf("%s observed nothing after generate+match", name)
		}
	}

	// More traffic, then a second scrape: counters must not go back.
	generateD2(t, ts.URL, "d2b")
	doJSON(t, http.MethodPost, ts.URL+"/v1/match", map[string]any{
		"graph": "d2", "algorithms": []string{"CNC"}, "threshold": 0.5,
	}, &mresp)
	second := scrapeProm(t, ts.URL)
	if err := promtest.CheckMonotonic(first, second); err != nil {
		t.Fatal(err)
	}
	if a, b := counterValue(first, "ccer_requests_total"), counterValue(second, "ccer_requests_total"); b <= a {
		t.Fatalf("ccer_requests_total did not advance: %g -> %g", a, b)
	}
}

// histCount sums the _count samples of a histogram family.
func histCount(s *promtest.Scrape, family string) float64 {
	fam := s.Families[family]
	if fam == nil {
		return 0
	}
	var total float64
	for _, smp := range fam.Samples {
		if strings.HasSuffix(smp.Name, "_count") {
			total += smp.Value
		}
	}
	return total
}

// counterValue sums a counter family's samples across label sets.
func counterValue(s *promtest.Scrape, family string) float64 {
	fam := s.Families[family]
	if fam == nil {
		return 0
	}
	var total float64
	for _, smp := range fam.Samples {
		total += smp.Value
	}
	return total
}

// TestMatchHistogramsAllAlgorithms runs one batch over every algorithm
// and requires ccer_match_seconds to carry one observed series per
// algorithm label.
func TestMatchHistogramsAllAlgorithms(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	generateD2(t, ts.URL, "d2")
	var resp matchRespJSON
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/match", map[string]any{
		"graph": "d2", "algorithms": ccer.Algorithms(), "threshold": 0.5,
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("match: status %d", code)
	}

	scrape := scrapeProm(t, ts.URL)
	fam := scrape.Families["ccer_match_seconds"]
	if fam == nil {
		t.Fatal("ccer_match_seconds missing")
	}
	counts := map[string]float64{}
	for _, smp := range fam.Samples {
		if !strings.HasSuffix(smp.Name, "_count") {
			continue
		}
		for _, pair := range strings.Split(smp.Labels, ",") {
			if v, ok := strings.CutPrefix(pair, `algorithm="`); ok {
				counts[strings.TrimSuffix(v, `"`)] = smp.Value
			}
		}
	}
	for _, alg := range ccer.Algorithms() {
		if counts[alg] < 1 {
			t.Errorf("algorithm %s: match histogram count = %g, want >= 1", alg, counts[alg])
		}
	}
	if len(counts) != len(ccer.Algorithms()) {
		t.Errorf("got %d algorithm series %v, want %d", len(counts), counts, len(ccer.Algorithms()))
	}
}

// TestMetricsContentNegotiation: the default stays JSON (backward
// compatible), ?format=prometheus and Accept: text/plain switch to the
// exposition format, and ?format=json wins over the Accept header.
func TestMetricsContentNegotiation(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})

	get := func(url, accept string) (string, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Header.Get("Content-Type"), string(raw)
	}

	if ct, body := get(ts.URL+"/metrics", ""); !strings.Contains(ct, "application/json") || !strings.Contains(body, `"requests_total"`) {
		t.Fatalf("default /metrics: content type %q, body %q", ct, body[:min(len(body), 80)])
	}
	if ct, body := get(ts.URL+"/metrics?format=prometheus", ""); ct != obs.ContentType || !strings.Contains(body, "# TYPE ccer_requests_total counter") {
		t.Fatalf("?format=prometheus: content type %q", ct)
	}
	if ct, _ := get(ts.URL+"/metrics", "text/plain"); ct != obs.ContentType {
		t.Fatalf("Accept: text/plain negotiated %q, want exposition", ct)
	}
	if ct, _ := get(ts.URL+"/metrics?format=json", "text/plain"); !strings.Contains(ct, "application/json") {
		t.Fatalf("?format=json must override Accept, got %q", ct)
	}
}

// TestHealthzDegraded: a latched journal failure (sticky ErrLogFailed)
// flips /healthz from 200 ok to 503 degraded while reads keep working.
func TestHealthzDegraded(t *testing.T) {
	mem := crashtest.NewMemFS()
	faulty := crashtest.NewFaultFS(mem)
	srv, err := serve.New(serve.Config{DataDir: "data", DataFS: faulty, JobWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer closeServer(t, srv, ts)
	generateD2(t, ts.URL, "d2")

	var health map[string]any
	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthy healthz: status %d", code)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthy healthz: %+v", health)
	}

	// Fail the next journal fsync: the put is refused and the failure
	// latches.
	faulty.Inject(crashtest.Fault{Point: "sync:wal"})
	var errResp map[string]any
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs", map[string]any{
		"name": "lost", "dataset": "D2", "seed": 7, "scale": 0.02,
	}, &errResp); code != http.StatusInternalServerError {
		t.Fatalf("put through failed fsync: status %d, want 500", code)
	}

	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &health); code != http.StatusServiceUnavailable {
		t.Fatalf("degraded healthz: status %d, want 503", code)
	}
	if health["status"] != "degraded" {
		t.Fatalf("degraded healthz: %+v", health)
	}
	if msg, _ := health["error"].(string); !strings.Contains(msg, durable.ErrLogFailed.Error()) {
		t.Fatalf("degraded healthz error = %q, want it to name the journal failure", msg)
	}

	// Reads stay up: the stored graph is still served.
	var info graphInfoJSON
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/graphs/d2", nil, &info); code != http.StatusOK {
		t.Fatalf("read during degradation: status %d", code)
	}
}

// TestTracesEndpoint: every request gets an X-Request-Id, and
// /v1/traces returns the recent ring most recent first with the match
// request's per-algorithm spans.
func TestTracesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{TraceRing: 8})
	generateD2(t, ts.URL, "d2")

	resp, err := http.Post(ts.URL+"/v1/match", "application/json",
		strings.NewReader(`{"graph":"d2","algorithms":["UMC","CNC"],"threshold":0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("match response carries no X-Request-Id")
	}

	var out struct {
		Traces []obs.TraceView `json:"traces"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/traces", nil, &out); code != http.StatusOK {
		t.Fatalf("/v1/traces: status %d", code)
	}
	if len(out.Traces) < 2 {
		t.Fatalf("got %d traces, want at least the generate and the match", len(out.Traces))
	}
	var match *obs.TraceView
	for i := range out.Traces {
		if out.Traces[i].Name == "POST /v1/match" {
			match = &out.Traces[i]
			break
		}
	}
	if match == nil {
		t.Fatalf("no POST /v1/match trace in %+v", out.Traces)
	}
	if match.ID == "" || match.DurNS <= 0 || match.Status != http.StatusOK {
		t.Fatalf("match trace = %+v", match)
	}
	spans := map[string]bool{}
	for _, sp := range match.Spans {
		spans[sp.Name] = true
	}
	for _, want := range []string{"match", "match/UMC", "match/CNC"} {
		if !spans[want] {
			t.Errorf("match trace misses span %q (have %v)", want, match.Spans)
		}
	}
}

// TestDisableObs: with observability off the service still works, and
// /metrics answers 404 in both views: with no registry there is nothing
// to render.
func TestDisableObs(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{DisableObs: true})
	generateD2(t, ts.URL, "d2")
	var mresp matchRespJSON
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/match", map[string]any{
		"graph": "d2", "algorithms": []string{"UMC"}, "threshold": 0.5,
	}, &mresp); code != http.StatusOK {
		t.Fatalf("match with obs disabled: status %d", code)
	}
	for _, path := range []string{"/metrics", "/metrics?format=prometheus"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s with obs disabled: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestSlowRequestLog: with a zero-duration slow threshold every request
// is over it, so the handler must emit one structured JSON line carrying
// the request id and stage spans.
func TestSlowRequestLog(t *testing.T) {
	var buf bytes.Buffer
	logw := &syncWriter{w: &buf}
	_, ts := newTestServer(t, serve.Config{TraceSlow: time.Nanosecond, ObsLog: logw})
	generateD2(t, ts.URL, "d2")

	lines := strings.Split(strings.TrimSpace(logw.String()), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("no slow-request log lines")
	}
	var entry struct {
		Level string `json:"level"`
		Msg   string `json:"msg"`
		obs.TraceView
	}
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("slow log line %q is not JSON: %v", lines[0], err)
	}
	if entry.Level != "warn" || entry.Msg != "slow request" || entry.ID == "" {
		t.Fatalf("slow log entry = %+v", entry)
	}
	if len(entry.Spans) == 0 {
		t.Fatalf("slow log entry carries no stage spans: %+v", entry)
	}
}

// syncWriter serializes writes: handler goroutines log concurrently with
// the test's reads.
type syncWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func (s *syncWriter) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.String()
}

// benchHandler returns a function that sends one request through a new
// server's full middleware + handler chain in-process (no sockets, so
// the numbers isolate the service code) and fails b unless it answers
// want.
func benchHandler(b *testing.B, cfg serve.Config) func(method, path, body string, want int) {
	b.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Close(ctx)
	})
	handler := srv.Handler()
	return func(method, path, body string, want int) {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, req)
		if w.Code != want {
			b.Fatalf("%s %s %s: status %d, want %d", method, path, body, w.Code, want)
		}
	}
}

// benchMatch drives POST /v1/match with the cache disabled, so every
// request runs all eight matchings: the instrumented compute path.
func benchMatch(b *testing.B, cfg serve.Config) {
	b.Helper()
	cfg.CacheSize = -1
	do := benchHandler(b, cfg)
	do(http.MethodPost, "/v1/graphs", `{"name":"d2","dataset":"D2","seed":42,"scale":0.02}`, http.StatusCreated)
	payload := fmt.Sprintf(`{"graph":"d2","algorithms":%s,"threshold":0.5}`,
		mustJSON(ccer.Algorithms()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do(http.MethodPost, "/v1/match", payload, http.StatusOK)
	}
}

// benchMatchHot drives POST /v1/match with the cache on, over the keys of
// the benchmark's match-hot workload for its single-measure graph (D2 at
// half size, Jaccard): every third request asks for all eight
// algorithms, the others for one, rotating over three thresholds. Every
// key is computed and hit once before timing, so each request is all
// cache hits: the fixed cost of a request.
func benchMatchHot(b *testing.B, cfg serve.Config) {
	b.Helper()
	do := benchHandler(b, cfg)
	do(http.MethodPost, "/v1/graphs", `{"name":"hot-sm","dataset":"D2","seed":1,"scale":0.5,"measure":"Jaccard"}`,
		http.StatusCreated)
	var all, single []string
	for _, t := range []float64{0.3, 0.5, 0.7} {
		all = append(all, fmt.Sprintf(`{"graph":"hot-sm","threshold":%g,"seed":1}`, t))
		for _, a := range ccer.Algorithms() {
			single = append(single, fmt.Sprintf(`{"graph":"hot-sm","algorithms":["%s"],"threshold":%g,"seed":1}`, a, t))
		}
	}
	for _, payload := range all {
		do(http.MethodPost, "/v1/match", payload, http.StatusOK)
		do(http.MethodPost, "/v1/match", payload, http.StatusOK)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload := all[i/3%len(all)]
		if i%3 != 0 {
			payload = single[(i-i/3-1)%len(single)]
		}
		do(http.MethodPost, "/v1/match", payload, http.StatusOK)
	}
}

func mustJSON(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(raw)
}

// BenchmarkMatchRequestObserved vs BenchmarkMatchRequestNoObs is the
// instrumentation-overhead pair the CI job records: the full POST
// /v1/match path (all eight algorithms, cache off) with the metrics
// registry + tracer on and with obs disabled entirely.
func BenchmarkMatchRequestObserved(b *testing.B) { benchMatch(b, serve.Config{}) }

func BenchmarkMatchRequestNoObs(b *testing.B) { benchMatch(b, serve.Config{DisableObs: true}) }

// BenchmarkMatchRequestHotObserved vs BenchmarkMatchRequestHotNoObs is
// the same pair on the cache-hit path, where no matcher hides the fixed
// per-request costs instrumentation adds to.
func BenchmarkMatchRequestHotObserved(b *testing.B) { benchMatchHot(b, serve.Config{}) }

func BenchmarkMatchRequestHotNoObs(b *testing.B) { benchMatchHot(b, serve.Config{DisableObs: true}) }
