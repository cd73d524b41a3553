// Handler tests live in an external test package so they can exercise
// the service against the public ccer API (the root package imports
// internal/serve, so the internal package itself must not import it
// back; an external test package breaks the cycle).
package serve_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/ccer-go/ccer"
	"github.com/ccer-go/ccer/internal/graph"
	"github.com/ccer-go/ccer/internal/serve"
)

func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			t.Errorf("server close: %v", err)
		}
		checkGoroutines(t, baseline)
	})
	return srv, ts
}

// checkGoroutines is the goroutine-leak regression check that runs after
// every handler test: once the server and its job workers are down, the
// goroutine count must return to (about) where it started. Anything
// still running — a leaked flight leader, a parked admission waiter, a
// worker that missed its cancel — fails the test. The small slack covers
// runtime helpers and the http client's idle-connection reaper.
func checkGoroutines(t *testing.T, baseline int) {
	t.Helper()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	var n int
	for {
		n = runtime.NumGoroutine()
		if n <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	t.Errorf("goroutine leak: %d running, baseline %d\n%s", n, baseline, buf)
}

// doJSON posts body (marshalled) to url and decodes the response into out.
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
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
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s %s response %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

type graphInfoJSON struct {
	Name           string  `json:"name"`
	Version        int64   `json:"version"`
	Checksum       string  `json:"checksum"`
	N1             int     `json:"n1"`
	N2             int     `json:"n2"`
	Edges          int     `json:"edges"`
	HasGroundTruth bool    `json:"has_ground_truth"`
	Source         string  `json:"source"`
	Dataset        string  `json:"dataset"`
	Seed           int64   `json:"seed"`
	Scale          float64 `json:"scale"`
}

type matchRespJSON struct {
	Graph     string  `json:"graph"`
	Version   int64   `json:"version"`
	Threshold float64 `json:"threshold"`
	Seed      int64   `json:"seed"`
	Results   []struct {
		Algorithm string `json:"algorithm"`
		Cached    bool   `json:"cached"`
		Pairs     []struct {
			U int32   `json:"u"`
			V int32   `json:"v"`
			W float64 `json:"w"`
		} `json:"pairs"`
		Metrics *struct {
			Precision float64 `json:"precision"`
			Recall    float64 `json:"recall"`
			F1        float64 `json:"f1"`
		} `json:"metrics"`
	} `json:"results"`
}

type sweepRespJSON struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Error   string `json:"error"`
	Results []struct {
		Algorithm string  `json:"algorithm"`
		BestT     float64 `json:"best_t"`
		F1        float64 `json:"f1"`
	} `json:"results"`
}

type metricsJSON struct {
	RequestsTotal      int64            `json:"requests_total"`
	GraphsStored       int              `json:"graphs_stored"`
	MatchRequestsTotal int64            `json:"match_requests_total"`
	CacheHitsTotal     int64            `json:"cache_hits_total"`
	CacheMissesTotal   int64            `json:"cache_misses_total"`
	CacheHitRate       float64          `json:"cache_hit_rate"`
	JobsLive           int              `json:"jobs_live"`
	JobsDone           int              `json:"jobs_done"`
	GenerateNSTotal    map[string]int64 `json:"generate_ns_total"`
	GeneratesTotal     map[string]int64 `json:"generates_total"`
}

// generateD2 stores the reference D2 graph under the given name.
func generateD2(t *testing.T, base, name string) graphInfoJSON {
	t.Helper()
	var info graphInfoJSON
	code := doJSON(t, http.MethodPost, base+"/v1/graphs", map[string]any{
		"name": name, "dataset": "D2", "seed": 42, "scale": 0.02,
	}, &info)
	if code != http.StatusCreated {
		t.Fatalf("generate: status %d", code)
	}
	if info.Edges == 0 || !info.HasGroundTruth || info.Source != "generate" {
		t.Fatalf("generate info = %+v", info)
	}
	return info
}

// fetchGraph pulls the stored graph back through the edge-list endpoint,
// yielding the exact *graph.Bipartite the server matches on.
func fetchGraph(t *testing.T, base, name string) *graph.Bipartite {
	t.Helper()
	resp, err := http.Get(base + "/v1/graphs/" + name + "?format=edgelist")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edgelist fetch: status %d", resp.StatusCode)
	}
	g, err := graph.ReadEdgeList(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// postEdgeList uploads b's graph to url and requires a 201.
func postEdgeList(t *testing.T, url string, b *graph.Builder) {
	t.Helper()
	var wire bytes.Buffer
	if err := b.MustBuild().WriteEdgeList(&wire); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "text/plain", &wire)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload %s: status %d", url, resp.StatusCode)
	}
}

// TestMatchBatchIdenticalToSerial is the acceptance criterion: a POST
// /v1/match batch over all eight algorithms on a generated D2 graph
// returns exactly the pairs of serial ccer.Match at the same seed.
func TestMatchBatchIdenticalToSerial(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	generateD2(t, ts.URL, "d2")
	g := fetchGraph(t, ts.URL, "d2")

	const threshold = 0.5
	var resp matchRespJSON
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/match", map[string]any{
		"graph": "d2", "algorithms": ccer.Algorithms(), "threshold": threshold,
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("match: status %d", code)
	}
	if len(resp.Results) != len(ccer.Algorithms()) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(ccer.Algorithms()))
	}
	for i, alg := range ccer.Algorithms() {
		want, err := ccer.Match(g, alg, threshold)
		if err != nil {
			t.Fatal(err)
		}
		got := resp.Results[i]
		if got.Algorithm != alg {
			t.Fatalf("result %d is %s, want %s", i, got.Algorithm, alg)
		}
		if len(got.Pairs) != len(want) {
			t.Fatalf("%s: %d pairs, want %d", alg, len(got.Pairs), len(want))
		}
		for k, p := range want {
			q := got.Pairs[k]
			if q.U != p.U || q.V != p.V || q.W != p.W {
				t.Fatalf("%s pair %d = (%d,%d,%v), want (%d,%d,%v)",
					alg, k, q.U, q.V, q.W, p.U, p.V, p.W)
			}
		}
		if got.Metrics == nil {
			t.Fatalf("%s: no metrics despite ground truth", alg)
		}
	}
}

func TestMatchCacheHitAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	generateD2(t, ts.URL, "d2")
	req := map[string]any{"graph": "d2", "algorithms": []string{"UMC", "CNC"}, "threshold": 0.5}

	var first, second matchRespJSON
	doJSON(t, http.MethodPost, ts.URL+"/v1/match", req, &first)
	doJSON(t, http.MethodPost, ts.URL+"/v1/match", req, &second)
	for i := range first.Results {
		if first.Results[i].Cached {
			t.Fatalf("first request already cached: %+v", first.Results[i])
		}
		if !second.Results[i].Cached {
			t.Fatalf("repeat request not cached: %+v", second.Results[i])
		}
		if len(first.Results[i].Pairs) != len(second.Results[i].Pairs) {
			t.Fatal("cached pairs differ from computed pairs")
		}
	}

	var m metricsJSON
	doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &m)
	if m.CacheHitsTotal != 2 || m.CacheMissesTotal != 2 {
		t.Fatalf("cache counters = %d hits / %d misses, want 2/2", m.CacheHitsTotal, m.CacheMissesTotal)
	}
	if m.CacheHitRate != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", m.CacheHitRate)
	}
	if m.GraphsStored != 1 || m.MatchRequestsTotal != 2 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestGraphOverwriteInvalidatesCache(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	generateD2(t, ts.URL, "d2")
	req := map[string]any{"graph": "d2", "algorithms": []string{"UMC"}, "threshold": 0.5}
	var resp matchRespJSON
	doJSON(t, http.MethodPost, ts.URL+"/v1/match", req, &resp)

	// Same name, new content: the version bump must miss the cache.
	var info graphInfoJSON
	doJSON(t, http.MethodPost, ts.URL+"/v1/graphs", map[string]any{
		"name": "d2", "dataset": "D2", "seed": 7, "scale": 0.02,
	}, &info)
	doJSON(t, http.MethodPost, ts.URL+"/v1/match", req, &resp)
	if resp.Results[0].Cached {
		t.Fatal("match on replaced graph served from stale cache")
	}
	if resp.Version != info.Version {
		t.Fatalf("match version %d, want %d", resp.Version, info.Version)
	}
}

// TestSameVersionSyncWriteMissesCache replaces a graph's content at its
// current version through a replica-sync upload (a repair stream
// settling a divergent copy): the next match must run on the new content,
// not answer with the old content's cached pairs.
func TestSameVersionSyncWriteMissesCache(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	upload := func(query string, edges ...graph.Edge) {
		t.Helper()
		b := graph.NewBuilder(2, 2)
		for _, e := range edges {
			b.Add(e.U, e.V, e.W)
		}
		postEdgeList(t, ts.URL+"/v1/graphs?"+query, b)
	}
	match := func() matchRespJSON {
		t.Helper()
		var resp matchRespJSON
		req := map[string]any{"graph": "g", "algorithms": []string{"EXC"}, "threshold": 0.5}
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/match", req, &resp); code != http.StatusOK {
			t.Fatalf("match: status %d", code)
		}
		return resp
	}
	upload("name=g", graph.Edge{U: 0, V: 0, W: 0.9}, graph.Edge{U: 1, V: 1, W: 0.8})
	match()
	upload("name=g&sync_version=1", graph.Edge{U: 0, V: 1, W: 0.9}, graph.Edge{U: 1, V: 0, W: 0.8})
	got := match().Results[0]
	if got.Cached || len(got.Pairs) != 2 || got.Pairs[0].U != 0 || got.Pairs[0].V != 1 {
		t.Fatalf("match after same-version sync write = %+v, want the new graph's pairs (0,1) and (1,0), computed", got)
	}
}

func TestSweepJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	generateD2(t, ts.URL, "d2")
	g := fetchGraph(t, ts.URL, "d2")

	var sweep sweepRespJSON
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", map[string]any{
		"graph": "d2", "algorithms": []string{"UMC", "CNC"},
	}, &sweep)
	if code != http.StatusAccepted {
		t.Fatalf("sweep create: status %d", code)
	}
	if sweep.ID == "" {
		t.Fatal("no job id")
	}

	deadline := time.Now().Add(30 * time.Second)
	for sweep.State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck in %q (%s)", sweep.State, sweep.Error)
		}
		time.Sleep(5 * time.Millisecond)
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/sweeps/"+sweep.ID, nil, &sweep); code != http.StatusOK {
			t.Fatalf("sweep get: status %d", code)
		}
	}

	// The async job must agree with the serial library sweep. The server
	// generated the task at (D2, seed 42, scale 0.02); regenerating it
	// client-side recovers the same ground truth.
	task, err := ccer.GenerateDataset("D2", 42, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ccer.SweepAll(g, task.GT, []string{"UMC", "CNC"}, ccer.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Results) != 2 {
		t.Fatalf("results = %+v", sweep.Results)
	}
	for i, res := range want {
		got := sweep.Results[i]
		if got.Algorithm != res.Algorithm || got.BestT != res.BestT || got.F1 != res.Best.F1 {
			t.Fatalf("job result %d = %+v, want %s best_t=%v f1=%v",
				i, got, res.Algorithm, res.BestT, res.Best.F1)
		}
	}

	var again sweepRespJSON
	doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", map[string]any{
		"graph": "d2", "algorithms": []string{"UMC", "CNC"},
	}, &again)
	for again.State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("second sweep stuck in %q", again.State)
		}
		time.Sleep(5 * time.Millisecond)
		doJSON(t, http.MethodGet, ts.URL+"/v1/sweeps/"+again.ID, nil, &again)
	}
	for i := range sweep.Results {
		if sweep.Results[i].BestT != again.Results[i].BestT || sweep.Results[i].F1 != again.Results[i].F1 {
			t.Fatalf("sweep results not deterministic: %+v vs %+v", sweep.Results[i], again.Results[i])
		}
	}

	var m metricsJSON
	doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &m)
	if m.JobsDone != 2 || m.JobsLive != 0 {
		t.Fatalf("job metrics = %+v", m)
	}
}

func TestSweepCancelQueuedJob(t *testing.T) {
	// One worker: the first (heavy) job occupies it, so the second stays
	// queued and cancels instantly.
	_, ts := newTestServer(t, serve.Config{JobWorkers: 1, Parallelism: 1})
	generateD2(t, ts.URL, "d2")

	// The repeat count keeps the heavy sweep on the worker for seconds
	// even with the fast-path matchers, so the victim is reliably still
	// queued when the cancel lands (both jobs are cancelled before the
	// test returns, so no test actually waits that long).
	var heavy, victim sweepRespJSON
	doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", map[string]any{
		"graph": "d2", "repeats": 5000,
	}, &heavy)
	doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", map[string]any{"graph": "d2"}, &victim)

	code := doJSON(t, http.MethodDelete, ts.URL+"/v1/sweeps/"+victim.ID, nil, &victim)
	if code != http.StatusOK {
		t.Fatalf("cancel: status %d", code)
	}
	if victim.State != "cancelled" {
		t.Fatalf("victim state = %q, want cancelled", victim.State)
	}
	// Cancel the heavy one too so Cleanup's Close drains fast.
	doJSON(t, http.MethodDelete, ts.URL+"/v1/sweeps/"+heavy.ID, nil, &heavy)
}

func TestServerCloseCancelsInFlightJobs(t *testing.T) {
	srv, err := serve.New(serve.Config{JobWorkers: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	generateD2(t, ts.URL, "d2")
	var job sweepRespJSON
	doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", map[string]any{
		"graph": "d2", "repeats": 200,
	}, &job)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatalf("close with in-flight job: %v", err)
	}
	doJSON(t, http.MethodGet, ts.URL+"/v1/sweeps/"+job.ID, nil, &job)
	if job.State != "cancelled" && job.State != "done" {
		t.Fatalf("job state after close = %q", job.State)
	}
	// A 200-repeat full sweep takes far longer than Close took; it must
	// have been cut short, not completed.
	if job.State != "cancelled" {
		t.Fatalf("job completed despite shutdown cancellation")
	}
}

func TestGraphUploadRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	b := graph.NewBuilder(3, 3)
	b.Add(0, 0, 0.9)
	b.Add(1, 2, 0.7)
	b.Add(2, 1, 0.4)
	g := b.MustBuild()
	var wire bytes.Buffer
	if err := g.WriteEdgeList(&wire); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/v1/graphs?name=up", "text/plain", bytes.NewReader(wire.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var info graphInfoJSON
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	if info.Name != "up" || info.N1 != 3 || info.Edges != 3 || info.HasGroundTruth || info.Source != "upload" {
		t.Fatalf("upload info = %+v", info)
	}
	if info.Checksum != fmt.Sprintf("%016x", g.Checksum()) {
		t.Fatalf("checksum %s, want %016x", info.Checksum, g.Checksum())
	}

	back := fetchGraph(t, ts.URL, "up")
	if back.NumEdges() != 3 || back.N1() != 3 || back.N2() != 3 {
		t.Fatalf("round-tripped graph %d/%d/%d", back.N1(), back.N2(), back.NumEdges())
	}

	// Matching an uploaded graph works, just without metrics.
	var mr matchRespJSON
	doJSON(t, http.MethodPost, ts.URL+"/v1/match", map[string]any{
		"graph": "up", "algorithms": []string{"UMC"}, "threshold": 0.3,
	}, &mr)
	if len(mr.Results) != 1 || len(mr.Results[0].Pairs) == 0 {
		t.Fatalf("match on upload = %+v", mr.Results)
	}
	if mr.Results[0].Metrics != nil {
		t.Fatal("metrics reported without ground truth")
	}
}

func TestGraphListAndDelete(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	generateD2(t, ts.URL, "a")
	generateD2(t, ts.URL, "b")
	var list struct {
		Graphs []graphInfoJSON `json:"graphs"`
	}
	doJSON(t, http.MethodGet, ts.URL+"/v1/graphs", nil, &list)
	if len(list.Graphs) != 2 || list.Graphs[0].Name != "a" || list.Graphs[1].Name != "b" {
		t.Fatalf("list = %+v", list.Graphs)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/graphs/a", nil, nil); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	doJSON(t, http.MethodGet, ts.URL+"/v1/graphs", nil, &list)
	if len(list.Graphs) != 1 {
		t.Fatalf("list after delete = %+v", list.Graphs)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	var h struct {
		Status string `json:"status"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &h); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz = %d %+v", code, h)
	}
}

func TestErrorResponses(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	generateD2(t, ts.URL, "d2")
	cases := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"match unknown graph", http.MethodPost, "/v1/match", map[string]any{"graph": "nope"}, http.StatusNotFound},
		{"match unknown algorithm", http.MethodPost, "/v1/match", map[string]any{"graph": "d2", "algorithms": []string{"XXX"}}, http.StatusBadRequest},
		{"match bad threshold", http.MethodPost, "/v1/match", map[string]any{"graph": "d2", "threshold": 1.5}, http.StatusBadRequest},
		{"match unknown field", http.MethodPost, "/v1/match", map[string]any{"graph": "d2", "bogus": 1}, http.StatusBadRequest},
		{"sweep unknown graph", http.MethodPost, "/v1/sweeps", map[string]any{"graph": "nope"}, http.StatusNotFound},
		{"sweep unknown algorithm", http.MethodPost, "/v1/sweeps", map[string]any{"graph": "d2", "algorithms": []string{"XXX"}}, http.StatusBadRequest},
		{"sweep get unknown", http.MethodGet, "/v1/sweeps/sweep-99", nil, http.StatusNotFound},
		{"sweep cancel unknown", http.MethodDelete, "/v1/sweeps/sweep-99", nil, http.StatusNotFound},
		{"graph get unknown", http.MethodGet, "/v1/graphs/nope", nil, http.StatusNotFound},
		{"graph delete unknown", http.MethodDelete, "/v1/graphs/nope", nil, http.StatusNotFound},
		{"generate unknown dataset", http.MethodPost, "/v1/graphs", map[string]any{"dataset": "D99"}, http.StatusBadRequest},
		{"generate unknown measure", http.MethodPost, "/v1/graphs", map[string]any{"dataset": "D1", "measure": "Nope"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code := doJSON(t, tc.method, ts.URL+tc.path, tc.body, nil); code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
	}

	// A malformed edge-list upload is a 400, not a panic.
	resp, err := http.Post(ts.URL+"/v1/graphs", "text/plain", strings.NewReader("not a header\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad upload: status %d", resp.StatusCode)
	}
}

// TestUploadHeaderNodeCap pins the hostile-header guard: a few bytes
// declaring billions of nodes must be rejected before allocation.
func TestUploadHeaderNodeCap(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxGraphNodes: 100})
	resp, err := http.Post(ts.URL+"/v1/graphs", "text/plain",
		strings.NewReader("2000000000 2000000000\n"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("huge header: status %d (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "cap") {
		t.Fatalf("huge header error = %s", body)
	}

	// Within the cap still works.
	resp, err = http.Post(ts.URL+"/v1/graphs", "text/plain",
		strings.NewReader("2 2\n0 0 0.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("small upload under cap: status %d", resp.StatusCode)
	}
}

func TestGenerateScaleNodeCap(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxGraphNodes: 10})
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs", map[string]any{
		"dataset": "D2", "scale": 0.02,
	}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("over-cap generation: status %d, want 400", code)
	}
}

func TestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxBodyBytes: 64})
	big := strings.Repeat("x", 1024)
	resp, err := http.Post(ts.URL+"/v1/graphs", "text/plain", strings.NewReader("2 2\n#"+big+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized upload: status %d, want 400", resp.StatusCode)
	}
}

func TestGenerationMetrics(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	generateD2(t, ts.URL, "a")
	generateD2(t, ts.URL, "b")

	var m metricsJSON
	doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &m)
	if m.GeneratesTotal["D2"] != 2 {
		t.Fatalf("generates_total[D2] = %d, want 2", m.GeneratesTotal["D2"])
	}
	if m.GenerateNSTotal["D2"] <= 0 {
		t.Fatalf("generate_ns_total[D2] = %d, want > 0", m.GenerateNSTotal["D2"])
	}
}

func TestPprofDisabledByDefault(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof reachable without EnablePprof: status %d", resp.StatusCode)
	}
}

func TestPprofEnabled(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{EnablePprof: true})
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index does not list profiles")
	}
}

// The row-parallel generation path must emit a graph byte-identical to
// the serial one.
func TestGenerateParallelChecksumIdentical(t *testing.T) {
	_, serial := newTestServer(t, serve.Config{Parallelism: 1})
	_, parallel := newTestServer(t, serve.Config{Parallelism: 8})
	a := generateD2(t, serial.URL, "g")
	b := generateD2(t, parallel.URL, "g")
	if a.Checksum != b.Checksum {
		t.Fatalf("checksums differ: serial %s vs parallel %s", a.Checksum, b.Checksum)
	}
}

// Family-mode generation: POST /v1/graphs with "family" builds every
// graph of one taxonomy family through the corpus kernels, stores each
// versioned with ground truth, and records per-family timing.
func TestFamilyGeneration(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	var resp struct {
		Family string          `json:"family"`
		Graphs []graphInfoJSON `json:"graphs"`
	}
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs", map[string]any{
		"name": "corp", "dataset": "D2", "seed": 3, "scale": 0.02, "family": "SB-SYN",
	}, &resp)
	if code != http.StatusCreated {
		t.Fatalf("family generate: status %d", code)
	}
	if resp.Family != "SB-SYN" {
		t.Fatalf("family = %q", resp.Family)
	}
	// 16 schema-based string measures per key attribute (D2 has one).
	if len(resp.Graphs) != 16 {
		t.Fatalf("graphs = %d, want 16", len(resp.Graphs))
	}
	for _, g := range resp.Graphs {
		if !strings.HasPrefix(g.Name, "corp/") || !g.HasGroundTruth || g.Dataset != "D2" {
			t.Fatalf("family graph info = %+v", g)
		}
		// The checksums are computed in parallel before the commits;
		// each must still tag its own graph.
		if sum := fmt.Sprintf("%016x", fetchGraph(t, ts.URL, g.Name).Checksum()); sum != g.Checksum {
			t.Fatalf("%s: listed checksum %s, its edge list hashes to %s", g.Name, g.Checksum, sum)
		}
	}
	// Every stored graph is individually retrievable and matchable.
	var info graphInfoJSON
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/graphs/"+resp.Graphs[0].Name, nil, &info); code != http.StatusOK {
		t.Fatalf("get family graph: status %d", code)
	}
	var mresp matchRespJSON
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/match", map[string]any{
		"graph": resp.Graphs[0].Name, "algorithms": []string{"UMC"},
	}, &mresp); code != http.StatusOK {
		t.Fatalf("match family graph: status %d", code)
	}

	var m struct {
		GenerateFamilyNSTotal map[string]int64 `json:"generate_family_ns_total"`
		GeneratesFamilyTotal  map[string]int64 `json:"generates_family_total"`
	}
	doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &m)
	if m.GeneratesFamilyTotal["SB-SYN"] != 1 {
		t.Fatalf("generates_family_total[SB-SYN] = %d, want 1", m.GeneratesFamilyTotal["SB-SYN"])
	}
	if m.GenerateFamilyNSTotal["SB-SYN"] <= 0 {
		t.Fatalf("generate_family_ns_total[SB-SYN] = %d, want > 0", m.GenerateFamilyNSTotal["SB-SYN"])
	}
}

func TestFamilyGenerationErrors(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs", map[string]any{
		"dataset": "D2", "family": "NOPE",
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown family: status %d, want 400", code)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs", map[string]any{
		"dataset": "D2", "family": "SB-SYN", "measure": "Jaccard",
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("family+measure: status %d, want 400", code)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs", map[string]any{
		"dataset": "D99", "family": "SB-SYN",
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown dataset: status %d, want 400", code)
	}
}

// Single-measure generation is an SB-SYN workload; its timing must land
// in the family split alongside the dataset split.
func TestSingleMeasureFamilyMetrics(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	generateD2(t, ts.URL, "one")
	var m struct {
		GenerateFamilyNSTotal map[string]int64 `json:"generate_family_ns_total"`
		GeneratesFamilyTotal  map[string]int64 `json:"generates_family_total"`
	}
	doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &m)
	if m.GeneratesFamilyTotal["SB-SYN"] != 1 {
		t.Fatalf("generates_family_total[SB-SYN] = %d, want 1", m.GeneratesFamilyTotal["SB-SYN"])
	}
}

// Repeated same-dataset family generation must be served from the
// cross-build representation caches — byte-identical graphs, RepCache
// hits visible on /metrics, and the candidate skip-ratio counters
// populated.
func TestFamilyGenerationRepCacheHits(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	var first, second struct {
		Family string          `json:"family"`
		Graphs []graphInfoJSON `json:"graphs"`
	}
	body := map[string]any{
		"name": "r1", "dataset": "D2", "seed": 3, "scale": 0.02, "family": "SA-SYN",
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs", body, &first); code != http.StatusCreated {
		t.Fatalf("first family generate: status %d", code)
	}
	body["name"] = "r2"
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs", body, &second); code != http.StatusCreated {
		t.Fatalf("second family generate: status %d", code)
	}
	if len(first.Graphs) == 0 || len(first.Graphs) != len(second.Graphs) {
		t.Fatalf("graph counts: %d vs %d", len(first.Graphs), len(second.Graphs))
	}
	for i := range first.Graphs {
		if first.Graphs[i].Checksum != second.Graphs[i].Checksum {
			t.Fatalf("graph %d: cached rebuild changed checksum %s -> %s",
				i, first.Graphs[i].Checksum, second.Graphs[i].Checksum)
		}
	}
	var metrics struct {
		RepCacheHits    int64            `json:"repcache_hits_total"`
		RepCacheMisses  int64            `json:"repcache_misses_total"`
		RepCacheEntries int              `json:"repcache_entries"`
		Visited         map[string]int64 `json:"generate_pairs_visited_total"`
		Skipped         map[string]int64 `json:"generate_pairs_skipped_total"`
		SkipRatio       float64          `json:"generate_skip_ratio"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &metrics); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if metrics.RepCacheHits == 0 {
		t.Fatal("second generation produced no repcache hits")
	}
	if metrics.RepCacheMisses == 0 || metrics.RepCacheEntries == 0 {
		t.Fatalf("repcache counters implausible: %+v", metrics)
	}
	if metrics.Visited["SA-SYN"] == 0 {
		t.Fatalf("no visited pairs recorded: %+v", metrics)
	}
	if metrics.Skipped["SA-SYN"] == 0 || metrics.SkipRatio <= 0 {
		t.Fatalf("candidate cut recorded no skips: %+v", metrics)
	}
}

// measurePins are the checksums of single-measure POST /v1/graphs
// graphs, written down as literals so a rewrite of the builder cannot
// drift: every SB-SYN measure on D1 (two key attributes, concatenated)
// and on D2, both at scale 0.02; min_sim 0.4 for the edit measures and
// Jaccard; and the hot single-measure graph of the serving benchmark.
var measurePins = []struct {
	dataset  string
	seed     int64
	scale    float64
	measure  string
	minSim   float64
	checksum string
}{
	{"D1", 3, 0.02, "Levenshtein", 0, "80ec8edd44a66228"},
	{"D1", 3, 0.02, "DamerauLevenshtein", 0, "4d3608ea858887be"},
	{"D1", 3, 0.02, "Jaro", 0, "d95c788a7f4138b3"},
	{"D1", 3, 0.02, "NeedlemanWunsch", 0, "f9cff47c9972378a"},
	{"D1", 3, 0.02, "QGramsDistance", 0, "c851ef30d18ce4e8"},
	{"D1", 3, 0.02, "LongestCommonSubstr", 0, "e22047572cb80561"},
	{"D1", 3, 0.02, "LongestCommonSubseq", 0, "034606c85444623d"},
	{"D1", 3, 0.02, "Cosine", 0, "dd91ea682bfe6c5f"},
	{"D1", 3, 0.02, "BlockDistance", 0, "a981e43d97f0b362"},
	{"D1", 3, 0.02, "Dice", 0, "d927cb9c435405af"},
	{"D1", 3, 0.02, "SimonWhite", 0, "8165114ab57871bf"},
	{"D1", 3, 0.02, "OverlapCoefficient", 0, "7f60324b0c8a9321"},
	{"D1", 3, 0.02, "Euclidean", 0, "8e160806bcc5288f"},
	{"D1", 3, 0.02, "Jaccard", 0, "76e9343e2d0904c2"},
	{"D1", 3, 0.02, "GeneralizedJaccard", 0, "a5ccd57bcb315fd5"},
	{"D1", 3, 0.02, "MongeElkan", 0, "7eb9abad8da0457e"},
	{"D1", 3, 0.02, "Levenshtein", 0.4, "2e61e7aab191d494"},
	{"D1", 3, 0.02, "DamerauLevenshtein", 0.4, "b3263e52b3d8aaff"},
	{"D1", 3, 0.02, "Jaccard", 0.4, "91b870c44a546116"},
	{"D2", 5, 0.02, "Levenshtein", 0, "900fe23d72d7cc5f"},
	{"D2", 5, 0.02, "DamerauLevenshtein", 0, "f1510ce7687ce840"},
	{"D2", 5, 0.02, "Jaro", 0, "ba4a4295ed825623"},
	{"D2", 5, 0.02, "NeedlemanWunsch", 0, "6895fcdd994b5fa1"},
	{"D2", 5, 0.02, "QGramsDistance", 0, "0973bfdcb1265d33"},
	{"D2", 5, 0.02, "LongestCommonSubstr", 0, "143bd0f1fe8d6213"},
	{"D2", 5, 0.02, "LongestCommonSubseq", 0, "ceb4ddacb5ba2610"},
	{"D2", 5, 0.02, "Cosine", 0, "557066ffcebd7e8c"},
	{"D2", 5, 0.02, "BlockDistance", 0, "b1913c74f66abb2e"},
	{"D2", 5, 0.02, "Dice", 0, "a6f4b89985aa7dc6"},
	{"D2", 5, 0.02, "SimonWhite", 0, "a6f4b89985aa7dc6"},
	{"D2", 5, 0.02, "OverlapCoefficient", 0, "cd9d921e9b80ed90"},
	{"D2", 5, 0.02, "Euclidean", 0, "a3d16a1a75b377f4"},
	{"D2", 5, 0.02, "Jaccard", 0, "1c3fe8fc300e46ec"},
	{"D2", 5, 0.02, "GeneralizedJaccard", 0, "1c3fe8fc300e46ec"},
	{"D2", 5, 0.02, "MongeElkan", 0, "a1a9415de290003b"},
	{"D2", 5, 0.02, "Levenshtein", 0.4, "983422304ac14e9b"},
	{"D2", 5, 0.02, "DamerauLevenshtein", 0.4, "c4527b0b82c283b7"},
	{"D2", 5, 0.02, "Jaccard", 0.4, "cab8bd1fda58ab58"},
	{"D2", 1, 0.5, "Jaccard", 0, "6449d1b4ee4f0dd6"},
}

// TestGenerateMeasurePins regenerates every pinned graph through the
// service and compares its checksum with the literal.
func TestGenerateMeasurePins(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	for k, p := range measurePins {
		var info graphInfoJSON
		req := map[string]any{"name": fmt.Sprintf("pin%d", k), "dataset": p.dataset,
			"seed": p.seed, "scale": p.scale, "measure": p.measure, "min_sim": p.minSim}
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs", req, &info); code != http.StatusCreated {
			t.Fatalf("%v: status %d", req, code)
		}
		if info.Checksum != p.checksum {
			t.Errorf("%s seed %d scale %g %s min_sim %g: checksum %s, pinned %s",
				p.dataset, p.seed, p.scale, p.measure, p.minSim, info.Checksum, p.checksum)
		}
	}
	// The single-measure path feeds the same skip-ratio counters as
	// family mode.
	var metrics struct {
		Visited map[string]int64 `json:"generate_pairs_visited_total"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &metrics); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if metrics.Visited["SB-SYN"] == 0 {
		t.Fatalf("single-measure generation recorded no visited pairs: %+v", metrics)
	}
}

// syncListingJSON mirrors the ?fields=sync response: the cheap per-name
// replica-comparison view an anti-entropy scan pulls.
type syncListingJSON struct {
	Graphs []struct {
		Name     string `json:"name"`
		Version  int64  `json:"version"`
		Checksum string `json:"checksum"`
	} `json:"graphs"`
	Tombstones []struct {
		Name    string `json:"name"`
		Version int64  `json:"version"`
	} `json:"tombstones"`
}

// TestGraphSyncProtocol drives the full HTTP surface the cluster repair
// loop speaks: the ?fields=sync listing (versions, checksums,
// tombstones), the version-pinned conditional sync upload, and the
// conditional sync delete.
func TestGraphSyncProtocol(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	info := generateD2(t, ts.URL, "d2")
	wire := new(bytes.Buffer)
	if err := fetchGraph(t, ts.URL, "d2").WriteEdgeList(wire); err != nil {
		t.Fatal(err)
	}

	var listing syncListingJSON
	doJSON(t, http.MethodGet, ts.URL+"/v1/graphs?fields=sync", nil, &listing)
	if len(listing.Graphs) != 1 || len(listing.Tombstones) != 0 {
		t.Fatalf("sync listing = %+v", listing)
	}
	if g := listing.Graphs[0]; g.Name != "d2" || g.Version != info.Version || g.Checksum != info.Checksum {
		t.Fatalf("sync listing entry = %+v, want %s@%d %s", g, "d2", info.Version, info.Checksum)
	}

	// Sync upload pinned at a higher version applies and reports 201
	// with the pinned version, so a repaired replica lists identically
	// to its source.
	resp, err := http.Post(ts.URL+"/v1/graphs?name=copy&sync_version=9", "text/plain", bytes.NewReader(wire.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var created graphInfoJSON
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || created.Version != 9 || created.Checksum != info.Checksum || created.Source != "repair" {
		t.Fatalf("sync upload: status %d info %+v", resp.StatusCode, created)
	}

	// Replaying the same stream is a 200 no-op, not a conflict: repair
	// retries are idempotent.
	resp, err = http.Post(ts.URL+"/v1/graphs?name=copy&sync_version=9", "text/plain", bytes.NewReader(wire.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var noop struct {
		Applied bool  `json:"applied"`
		Version int64 `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&noop); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || noop.Applied || noop.Version != 9 {
		t.Fatalf("duplicate sync upload: status %d body %+v", resp.StatusCode, noop)
	}

	// A sync upload without an explicit name is meaningless.
	resp, err = http.Post(ts.URL+"/v1/graphs?sync_version=3", "text/plain", bytes.NewReader(wire.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("nameless sync upload: status %d, want 400", resp.StatusCode)
	}

	// Sync delete at the entry's version applies (delete wins the tie),
	// records a tombstone in the listing, and never 404s on replay.
	var del struct {
		Applied bool `json:"applied"`
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/graphs/copy?sync_version=9", nil, &del); code != http.StatusOK || !del.Applied {
		t.Fatalf("sync delete: code %d applied %v", code, del.Applied)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/graphs/copy?sync_version=9", nil, &del); code != http.StatusOK || del.Applied {
		t.Fatalf("replayed sync delete: code %d applied %v, want 200 no-op", code, del.Applied)
	}
	doJSON(t, http.MethodGet, ts.URL+"/v1/graphs?fields=sync", nil, &listing)
	if len(listing.Tombstones) != 1 || listing.Tombstones[0].Name != "copy" || listing.Tombstones[0].Version != 9 {
		t.Fatalf("tombstones after sync delete = %+v, want copy@9", listing.Tombstones)
	}
}

// matchReplyPins are sha256 digests (first 16 hex digits) of whole POST
// /v1/match bodies, each request sent twice: the first reply computes
// every matching, the second serves them all from the result cache.
// Changing how a reply is rendered must leave every digest unchanged.
var matchReplyPins = []struct {
	graph      string
	algorithms []string
	threshold  float64
	seed       int64
	miss, hit  string
}{
	{pinGenerated, nil, 0.5, 0, "be6177b04861f72f", "41db6e3789700ddd"},
	{pinGenerated, nil, 0.35, 0, "2557fc7990918e9b", "141107586048bf51"},
	{pinGenerated, []string{"BAH"}, 0.5, 7, "6d8336b023338492", "d46b98b870fd8dc5"},
	{pinGenerated, []string{"UMC"}, 0.2, 0, "7bb027b5a012fecc", "b22aa972e2c9c493"},
	{"up", nil, 0, 0, "95320aacf74b170a", "7847b417a5bb855c"},
	{"up", []string{"KRC"}, 0.5, 0, "72d2f7bc1a0058b9", "9f6e9844bbdd3334"},
	{"low", []string{"CNC", "EXC"}, 0.5, 0, "f35d1721d2da72e1", "fdc5a24439b29b71"},
}

// pinGenerated is the generated graph's name: it needs HTML escaping in
// a JSON string, and U+2028 is escaped as well.
const pinGenerated = "d2<&>\u2028"

// TestMatchReplyPins matches a generated graph (with ground truth, so
// replies carry metrics) and two uploaded ones (without it: one with
// weights that render in exponent form, one whose matchings are empty)
// and compares each reply body's digest with its literal.
func TestMatchReplyPins(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	generateD2(t, ts.URL, pinGenerated)
	up := graph.NewBuilder(5, 5)
	up.Add(0, 0, 0.9)
	up.Add(1, 1, 1e-7)
	up.Add(2, 2, 3e21)
	up.Add(3, 3, 0.30000000000000004)
	up.Add(4, 4, 1)
	up.Add(0, 1, 0.5)
	up.Add(3, 2, 0.75)
	// Every edge of "low" is at or below the threshold it is matched at,
	// so its replies carry empty pair lists.
	low := graph.NewBuilder(2, 2)
	low.Add(0, 0, 0.5)
	low.Add(1, 0, 0.25)
	postEdgeList(t, ts.URL+"/v1/graphs?name=up", up)
	postEdgeList(t, ts.URL+"/v1/graphs?name=low", low)

	for _, p := range matchReplyPins {
		raw, err := json.Marshal(map[string]any{"graph": p.graph, "algorithms": p.algorithms,
			"threshold": p.threshold, "seed": p.seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{p.miss, p.hit} {
			resp, err := http.Post(ts.URL+"/v1/match", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", raw, resp.StatusCode, body)
			}
			sum := sha256.Sum256(body)
			if got := hex.EncodeToString(sum[:8]); got != want {
				t.Errorf("%s: reply digest %s, pinned %s", raw, got, want)
			}
		}
	}
}
