package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/ccer-go/ccer/internal/cluster"
	"github.com/ccer-go/ccer/internal/obs"
	"github.com/ccer-go/ccer/internal/resilience"
	"github.com/ccer-go/ccer/internal/serve"
)

// testCluster is a router fronting n real in-process erserve backends.
type testCluster struct {
	router   *cluster.Router
	front    *httptest.Server
	bases    []string
	backends []*httptest.Server
	faults   []*resilience.Faults // per-backend fault registries
}

func newTestCluster(t *testing.T, n int, cfg cluster.RouterConfig) *testCluster {
	t.Helper()
	tc := &testCluster{}
	for i := 0; i < n; i++ {
		faults := resilience.NewFaults()
		srv, err := serve.New(serve.Config{Faults: faults})
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
		tc.backends = append(tc.backends, ts)
		tc.bases = append(tc.bases, ts.URL)
		tc.faults = append(tc.faults, faults)
	}
	cfg.Backends = tc.bases
	rt, err := cluster.NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc.router = rt
	tc.front = httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		tc.front.Close()
		rt.Close()
	})
	return tc
}

func postJSON(t *testing.T, url string, payload any) (int, http.Header, []byte) {
	t.Helper()
	raw, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// generateVia creates a D2 graph through the router.
func generateVia(t *testing.T, base, name string) {
	t.Helper()
	status, _, body := postJSON(t, base+"/v1/graphs", map[string]any{
		"name": name, "dataset": "D2", "seed": 42, "scale": 0.02,
	})
	if status != http.StatusCreated {
		t.Fatalf("generate %s: status %d (body %s)", name, status, body)
	}
}

// TestRouterReplicatesWrites: a write through the router lands on
// exactly the graph's rendezvous replicas, at the same version on each.
func TestRouterReplicatesWrites(t *testing.T) {
	tc := newTestCluster(t, 3, cluster.RouterConfig{Replicas: 2})
	generateVia(t, tc.front.URL, "alpha")

	want := map[string]bool{}
	for _, base := range cluster.Replicas("alpha", tc.bases, 2) {
		want[base] = true
	}
	versions := map[string]int64{}
	for _, base := range tc.bases {
		var info struct {
			Version int64 `json:"version"`
		}
		status := getJSON(t, base+"/v1/graphs/alpha", &info)
		if want[base] {
			if status != http.StatusOK {
				t.Fatalf("replica %s: status %d, want 200", base, status)
			}
			versions[base] = info.Version
		} else if status != http.StatusNotFound {
			t.Fatalf("non-replica %s holds the graph (status %d)", base, status)
		}
	}
	if len(versions) != 2 {
		t.Fatalf("graph on %d backends, want 2", len(versions))
	}
	for base, v := range versions {
		if v != 1 {
			t.Fatalf("replica %s at version %d, want 1", base, v)
		}
	}
}

// TestRouterMatchByteIdenticalAcrossReplicas: the same match through
// the router and directly against each replica yields identical bytes —
// the property hedging and failover rely on. Responses embed a
// cache-hit flag that depends on request history, so every replica is
// warmed first; from then on the bytes must never differ, no matter
// who serves.
func TestRouterMatchByteIdenticalAcrossReplicas(t *testing.T) {
	tc := newTestCluster(t, 3, cluster.RouterConfig{Replicas: 2})
	generateVia(t, tc.front.URL, "alpha")

	payload := map[string]any{"graph": "alpha", "algorithms": []string{"UMC"}, "threshold": 0.5}
	replicas := cluster.Replicas("alpha", tc.bases, 2)
	for _, base := range replicas {
		if status, _, body := postJSON(t, base+"/v1/match", payload); status != http.StatusOK {
			t.Fatalf("warmup match on %s: status %d (body %s)", base, status, body)
		}
	}
	status, _, viaRouter := postJSON(t, tc.front.URL+"/v1/match", payload)
	if status != http.StatusOK {
		t.Fatalf("routed match: status %d (body %s)", status, viaRouter)
	}
	for _, base := range replicas {
		status, _, direct := postJSON(t, base+"/v1/match", payload)
		if status != http.StatusOK {
			t.Fatalf("direct match on %s: status %d", base, status)
		}
		if !bytes.Equal(viaRouter, direct) {
			t.Fatalf("match via router differs from direct match on %s:\n%s\nvs\n%s", base, viaRouter, direct)
		}
	}
}

// TestRouterRequiresExplicitName: auto-assigned names would diverge
// across replicas, so the router refuses them up front.
func TestRouterRequiresExplicitName(t *testing.T) {
	tc := newTestCluster(t, 2, cluster.RouterConfig{})
	status, _, body := postJSON(t, tc.front.URL+"/v1/graphs", map[string]any{
		"dataset": "D2", "seed": 1, "scale": 0.02,
	})
	if status != http.StatusBadRequest {
		t.Fatalf("nameless write: status %d (body %s), want 400", status, body)
	}
}

// TestRouterFailsOverDeadBackend: with one backend gone, writes and
// reads for graphs it hosted keep succeeding via the surviving
// replica, the breaker opens, and /v1/cluster reports it.
func TestRouterFailsOverDeadBackend(t *testing.T) {
	tc := newTestCluster(t, 3, cluster.RouterConfig{
		Replicas:         2,
		ProbeInterval:    25 * time.Millisecond,
		ProbeTimeout:     250 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  200 * time.Millisecond,
	})
	generateVia(t, tc.front.URL, "alpha")
	replicas := cluster.Replicas("alpha", tc.bases, 2)

	// Kill alpha's owner.
	for i, base := range tc.bases {
		if base == replicas[0] {
			tc.backends[i].Close()
		}
	}
	// Reads fail over immediately — no waiting for the breaker.
	payload := map[string]any{"graph": "alpha", "algorithms": []string{"UMC"}, "threshold": 0.5}
	status, _, body := postJSON(t, tc.front.URL+"/v1/match", payload)
	if status != http.StatusOK {
		t.Fatalf("match with dead owner: status %d (body %s)", status, body)
	}
	// Writes keep landing on the surviving replica.
	status, _, body = postJSON(t, tc.front.URL+"/v1/graphs", map[string]any{
		"name": "alpha", "dataset": "D2", "seed": 43, "scale": 0.02,
	})
	if status != http.StatusCreated {
		t.Fatalf("write with dead owner: status %d (body %s)", status, body)
	}

	// The prober opens the dead backend's breaker.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st struct {
			Backends []struct {
				URL     string `json:"url"`
				Ready   bool   `json:"ready"`
				Breaker string `json:"breaker"`
				Opens   int64  `json:"breaker_opens_total"`
			} `json:"backends"`
			HealthyBackends int `json:"healthy_backends"`
		}
		if code := getJSON(t, tc.front.URL+"/v1/cluster", &st); code != http.StatusOK {
			t.Fatalf("cluster state: status %d", code)
		}
		var dead *struct {
			URL     string `json:"url"`
			Ready   bool   `json:"ready"`
			Breaker string `json:"breaker"`
			Opens   int64  `json:"breaker_opens_total"`
		}
		for i := range st.Backends {
			if st.Backends[i].URL == replicas[0] {
				dead = &st.Backends[i]
			}
		}
		if dead == nil {
			t.Fatal("dead backend missing from cluster state")
		}
		if !dead.Ready && dead.Opens >= 1 {
			if st.HealthyBackends != 2 {
				t.Fatalf("healthy_backends = %d, want 2", st.HealthyBackends)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened for dead backend: %+v", dead)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRouterHedgesSlowReplica: a replica stalled far past the hedge
// delay loses to the hedged duplicate; the router's counters show the
// hedge and the client sees a fast, correct response.
func TestRouterHedgesSlowReplica(t *testing.T) {
	tc := newTestCluster(t, 3, cluster.RouterConfig{
		Replicas:   2,
		HedgeAfter: 30 * time.Millisecond,
	})
	generateVia(t, tc.front.URL, "alpha")
	// Warm the reference threshold on both replicas so every later
	// response — whoever serves it — reports the same cache state and
	// stays byte-identical.
	payload := map[string]any{"graph": "alpha", "algorithms": []string{"UMC"}, "threshold": 0.5}
	for _, base := range cluster.Replicas("alpha", tc.bases, 2) {
		if status, _, body := postJSON(t, base+"/v1/match", payload); status != http.StatusOK {
			t.Fatalf("warmup on %s: status %d (body %s)", base, status, body)
		}
	}
	status, _, ref := postJSON(t, tc.front.URL+"/v1/match", payload)
	if status != http.StatusOK {
		t.Fatalf("reference match: %d", status)
	}

	// Stall matches on the owner only; the hedge lands on the second
	// replica. Unique threshold per call defeats both servers' result
	// caches... but the owner's cache already holds threshold 0.5, so
	// stall + a fresh threshold forces computation under the fault.
	owner := cluster.Replicas("alpha", tc.bases, 2)[0]
	for i, base := range tc.bases {
		if base == owner {
			tc.faults[i].Set("match", 2*time.Second, nil, -1)
		}
	}
	slow := map[string]any{"graph": "alpha", "algorithms": []string{"UMC"}, "threshold": 0.45}
	start := time.Now()
	status, _, body := postJSON(t, tc.front.URL+"/v1/match", slow)
	elapsed := time.Since(start)
	if status != http.StatusOK {
		t.Fatalf("hedged match: status %d (body %s)", status, body)
	}
	if elapsed > time.Second {
		t.Fatalf("hedged match took %v, stall is 2s — hedge did not win", elapsed)
	}
	var m struct {
		HedgesTotal    int64 `json:"hedges_total"`
		HedgeWinsTotal int64 `json:"hedge_wins_total"`
	}
	if code := getJSON(t, tc.front.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if m.HedgesTotal < 1 || m.HedgeWinsTotal < 1 {
		t.Fatalf("hedges=%d wins=%d, want both >= 1", m.HedgesTotal, m.HedgeWinsTotal)
	}
	// And the quiet-time response is still byte-identical for the
	// original threshold (served by the healthy replica).
	status, _, again := postJSON(t, tc.front.URL+"/v1/match", payload)
	if status != http.StatusOK || !bytes.Equal(again, ref) {
		t.Fatalf("post-stall match: status %d, identical=%v", status, bytes.Equal(again, ref))
	}
}

// TestRouterReadyz: ready with backends up; not ready once all are
// down and probed.
func TestRouterReadyz(t *testing.T) {
	tc := newTestCluster(t, 2, cluster.RouterConfig{
		ProbeInterval:    20 * time.Millisecond,
		ProbeTimeout:     200 * time.Millisecond,
		BreakerThreshold: 2,
	})
	if code := getJSON(t, tc.front.URL+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz with live backends: %d", code)
	}
	for _, ts := range tc.backends {
		ts.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code := getJSON(t, tc.front.URL+"/readyz", nil); code == http.StatusServiceUnavailable {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("router still ready with every backend dead")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRouterSweepRouting: sweeps route to a replica holding the graph
// and are retrievable through the router's id fan-out.
func TestRouterSweepRouting(t *testing.T) {
	tc := newTestCluster(t, 3, cluster.RouterConfig{Replicas: 2})
	generateVia(t, tc.front.URL, "alpha")
	status, _, body := postJSON(t, tc.front.URL+"/v1/sweeps", map[string]any{
		"graph": "alpha", "algorithms": []string{"UMC"}, "repeats": 1,
	})
	if status != http.StatusAccepted {
		t.Fatalf("sweep create: status %d (body %s)", status, body)
	}
	var sw struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sw); err != nil || sw.ID == "" {
		t.Fatalf("sweep reply %s: %v", body, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var got struct {
			State string `json:"state"`
		}
		code := getJSON(t, tc.front.URL+"/v1/sweeps/"+sw.ID, &got)
		if code != http.StatusOK {
			t.Fatalf("sweep get: status %d", code)
		}
		if got.State == "done" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck in state %q", got.State)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestRouterMetricsContentNegotiation: the router's /metrics negotiates
// as erserve's does. JSON is the default, ?format=prometheus and an
// Accept of text/plain or an openmetrics type select the exposition,
// and ?format=json wins over the Accept header.
func TestRouterMetricsContentNegotiation(t *testing.T) {
	tc := newTestCluster(t, 1, cluster.RouterConfig{RepairInterval: -1})
	for _, c := range []struct {
		query, accept string
		prometheus    bool
	}{
		{"", "", false},
		{"?format=prometheus", "", true},
		{"", "text/plain", true},
		{"?format=json", "text/plain", false},
		{"", "application/openmetrics-text; version=1.0.0", true},
	} {
		req, err := http.NewRequest(http.MethodGet, tc.front.URL+"/metrics"+c.query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.accept != "" {
			req.Header.Set("Accept", c.accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		ct := resp.Header.Get("Content-Type")
		if c.prometheus {
			if ct != obs.ContentType || !bytes.Contains(body, []byte("# TYPE ccer_router_requests_total counter")) {
				t.Errorf("query %q, Accept %q: content type %q, want the exposition", c.query, c.accept, ct)
			}
			continue
		}
		var m map[string]any
		if ct != "application/json" || json.Unmarshal(body, &m) != nil || m["requests_total"] == nil {
			t.Errorf("query %q, Accept %q: content type %q, want JSON with requests_total", c.query, c.accept, ct)
		}
	}
}
