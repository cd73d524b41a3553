package cluster_test

// In-process tests for the anti-entropy subsystem and live elasticity:
// repair convergence of a planted divergence, tombstone propagation,
// membership changes migrating exactly the names whose replica set
// changed, the honest no_replica verdict when a whole placement set is
// down, and the decorrelated probe stagger. The chaos harness
// (chaos_test.go) re-proves repair and elasticity against real killed
// processes; these tests pin the mechanics fast enough for -short runs.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/ccer-go/ccer/internal/cluster"
	"github.com/ccer-go/ccer/internal/graph"
	"github.com/ccer-go/ccer/internal/serve"
)

// repairStateJSON is the anti-entropy block of GET /v1/cluster.
type repairStateJSON struct {
	Repair struct {
		Enabled        bool           `json:"enabled"`
		Scans          int64          `json:"scans_total"`
		GraphsRepaired int64          `json:"graphs_repaired_total"`
		Bytes          int64          `json:"bytes_total"`
		Failures       int64          `json:"failures_total"`
		Diverged       map[string]int `json:"diverged"`
	} `json:"repair"`
}

// syncView is a backend's ?fields=sync listing, keyed by name.
func syncView(t *testing.T, base string) map[string]struct {
	Version  int64
	Checksum string
} {
	t.Helper()
	var listing struct {
		Graphs []struct {
			Name     string `json:"name"`
			Version  int64  `json:"version"`
			Checksum string `json:"checksum"`
		} `json:"graphs"`
	}
	if status := getJSON(t, base+"/v1/graphs?fields=sync", &listing); status != http.StatusOK {
		t.Fatalf("sync listing from %s: status %d", base, status)
	}
	out := map[string]struct {
		Version  int64
		Checksum string
	}{}
	for _, g := range listing.Graphs {
		out[g.Name] = struct {
			Version  int64
			Checksum string
		}{g.Version, g.Checksum}
	}
	return out
}

// testEdgeList builds a small deterministic graph and returns its wire
// bytes plus checksum (hex, as listings report it).
func testEdgeList(t *testing.T, seed int64) ([]byte, string) {
	t.Helper()
	b := graph.NewBuilder(4, 4)
	for i := int32(0); i < 4; i++ {
		b.Add(i, (i+int32(seed))%4, 0.5+float64(i)/10)
	}
	g := b.MustBuild()
	var wire bytes.Buffer
	if err := g.WriteEdgeList(&wire); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes(), fmt.Sprintf("%016x", g.Checksum())
}

// uploadEdgeList stores wire under name on base (router or backend).
func uploadEdgeList(t *testing.T, base, name string, wire []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/graphs?name="+url.QueryEscape(name), "text/plain", bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload %s to %s: status %d", name, base, resp.StatusCode)
	}
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(15 * time.Millisecond)
	}
	t.Fatalf("%s: not reached within %v", what, timeout)
}

// TestRouterRepairConvergesMissingReplica: a graph planted on only one
// of its placement replicas (the divergence a fanned write leaves when
// a replica is down) is streamed to the stale replica by the repair
// loop — same version, same checksum — and the scan leaves the
// divergence gauge empty and the repair counters advanced.
func TestRouterRepairConvergesMissingReplica(t *testing.T) {
	tc := newTestCluster(t, 3, cluster.RouterConfig{
		Replicas:       2,
		ProbeInterval:  25 * time.Millisecond,
		RepairInterval: 100 * time.Millisecond,
	})
	wire, checksum := testEdgeList(t, 1)
	placement := cluster.Replicas("solo", tc.bases, 2)
	uploadEdgeList(t, placement[0], "solo", wire) // bypass the router's fan

	waitFor(t, 5*time.Second, "stale replica repaired", func() bool {
		have, ok := syncView(t, placement[1])["solo"]
		return ok && have.Version == 1 && have.Checksum == checksum
	})
	// Only the placement replicas hold it; repair does not spray copies.
	inPlacement := map[string]bool{placement[0]: true, placement[1]: true}
	for _, base := range tc.bases {
		if _, held := syncView(t, base)["solo"]; held != inPlacement[base] {
			t.Fatalf("backend %s holds solo: %v, want %v", base, held, inPlacement[base])
		}
	}
	// The router counts the repaired graph and its bytes once the stale
	// replica's reply reaches it, which can be after the replica holds
	// the graph.
	waitFor(t, 5*time.Second, "repair counters advanced", func() bool {
		var cs repairStateJSON
		getJSON(t, tc.front.URL+"/v1/cluster", &cs)
		return cs.Repair.Enabled && cs.Repair.Scans >= 1 && cs.Repair.GraphsRepaired >= 1 && cs.Repair.Bytes >= 1
	})
	waitFor(t, 2*time.Second, "divergence gauge drained", func() bool {
		var cs repairStateJSON
		getJSON(t, tc.front.URL+"/v1/cluster", &cs)
		return len(cs.Repair.Diverged) == 0
	})
}

// TestRouterRepairPropagatesDelete: a delete applied on one replica
// (its peer missed it) propagates as a tombstone — delete wins the
// version tie — instead of the stale peer resurrecting the graph.
func TestRouterRepairPropagatesDelete(t *testing.T) {
	tc := newTestCluster(t, 3, cluster.RouterConfig{
		Replicas:       2,
		ProbeInterval:  25 * time.Millisecond,
		RepairInterval: 100 * time.Millisecond,
	})
	wire, _ := testEdgeList(t, 2)
	uploadEdgeList(t, tc.front.URL, "doomed", wire)
	placement := cluster.Replicas("doomed", tc.bases, 2)

	req, err := http.NewRequest(http.MethodDelete, placement[0]+"/v1/graphs/doomed", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct delete: status %d", resp.StatusCode)
	}

	// The admin kick endpoint answers 202 and the tombstone wins on the
	// peer within the repair pace.
	if status, _, body := postJSON(t, tc.front.URL+"/v1/cluster/repair", map[string]any{}); status != http.StatusAccepted {
		t.Fatalf("repair kick: status %d (body %s)", status, body)
	}
	waitFor(t, 5*time.Second, "delete propagated to the peer replica", func() bool {
		_, held := syncView(t, placement[1])["doomed"]
		return !held
	})
}

// newExtraBackend spawns one more real in-process erserve node, for
// elasticity tests that grow the cluster beyond newTestCluster's set.
func newExtraBackend(t *testing.T) string {
	t.Helper()
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
	return ts.URL
}

// TestRouterElasticityMigratesOnlyMovedNames: adding a backend through
// the admin endpoint migrates exactly the names whose rendezvous
// replica set now includes the newcomer; removing one re-replicates
// exactly the names it hosted. Reads through the router stay correct
// throughout.
func TestRouterElasticityMigratesOnlyMovedNames(t *testing.T) {
	tc := newTestCluster(t, 3, cluster.RouterConfig{
		Replicas:       2,
		ProbeInterval:  25 * time.Millisecond,
		RepairInterval: 100 * time.Millisecond,
	})
	// The newcomer starts before the uploads so that the names can be
	// chosen against its random port: any six fixed names put none or
	// all of themselves on it in about 3% of runs. Names follow the
	// elastic-%d sequence, at least six, until some move to the newcomer
	// and some do not.
	extra := newExtraBackend(t)
	grown := append(append([]string{}, tc.bases...), extra)
	var names []string
	wantOnExtra := map[string]bool{}
	for i := 0; i < 64 && (len(names) < 6 || len(wantOnExtra) == 0 || len(wantOnExtra) == len(names)); i++ {
		n := fmt.Sprintf("elastic-%d", i)
		names = append(names, n)
		if slices.Contains(cluster.Replicas(n, grown, 2), extra) {
			wantOnExtra[n] = true
		}
	}
	checksums := map[string]string{}
	for i, n := range names {
		wire, sum := testEdgeList(t, int64(10+i))
		uploadEdgeList(t, tc.front.URL, n, wire)
		checksums[n] = sum
	}

	// --- Grow: the newcomer must end up holding exactly the names whose
	// new placement includes it.
	if status, _, body := postJSON(t, tc.front.URL+"/v1/cluster/backends", map[string]any{"url": extra}); status != http.StatusOK {
		t.Fatalf("backend add: status %d (body %s)", status, body)
	}
	if status, _, _ := postJSON(t, tc.front.URL+"/v1/cluster/backends", map[string]any{"url": extra}); status != http.StatusConflict {
		t.Fatalf("duplicate backend add: status %d, want 409", status)
	}
	if len(wantOnExtra) == 0 || len(wantOnExtra) == len(names) {
		t.Fatalf("degenerate placement: %d of %d names moved to the newcomer", len(wantOnExtra), len(names))
	}
	waitFor(t, 5*time.Second, "newcomer caught up", func() bool {
		view := syncView(t, extra)
		if len(view) != len(wantOnExtra) {
			return false
		}
		for n := range wantOnExtra {
			if have, ok := view[n]; !ok || have.Checksum != checksums[n] {
				return false
			}
		}
		return true
	})

	// --- Shrink: drop an original backend; every name must be held by
	// its full new placement set, sourced from surviving copies.
	victim := tc.bases[0]
	req, err := http.NewRequest(http.MethodDelete, tc.front.URL+"/v1/cluster/backends?url="+url.QueryEscape(victim), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("backend remove: status %d", resp.StatusCode)
	}
	shrunk := make([]string, 0, 3)
	for _, base := range grown {
		if base != victim {
			shrunk = append(shrunk, base)
		}
	}
	waitFor(t, 5*time.Second, "placements re-replicated after shrink", func() bool {
		views := map[string]map[string]struct {
			Version  int64
			Checksum string
		}{}
		for _, base := range shrunk {
			views[base] = syncView(t, base)
		}
		for _, n := range names {
			for _, base := range cluster.Replicas(n, shrunk, 2) {
				if have, ok := views[base][n]; !ok || have.Checksum != checksums[n] {
					return false
				}
			}
		}
		return true
	})

	// Reads through the router resolve every name after both changes.
	for _, n := range names {
		var info struct {
			Checksum string `json:"checksum"`
		}
		if status := getJSON(t, tc.front.URL+"/v1/graphs/"+n, &info); status != http.StatusOK || info.Checksum != checksums[n] {
			t.Fatalf("routed read of %s after elasticity: status %d checksum %s, want %s", n, status, info.Checksum, checksums[n])
		}
	}
}

// TestRouterNoReplicaWhenPlacementSetDown: when every replica of a
// graph's placement set is unhealthy, the router answers an honest
// 503 with reason no_replica and a Retry-After — not a misleading 404
// (a healthy non-replica genuinely does not have the graph) and not a
// raw backend error.
func TestRouterNoReplicaWhenPlacementSetDown(t *testing.T) {
	tc := newTestCluster(t, 3, cluster.RouterConfig{
		Replicas:         2,
		ProbeInterval:    20 * time.Millisecond,
		ProbeTimeout:     200 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  10 * time.Second, // stay open for the test's span
		RepairInterval:   -1,
	})
	generateVia(t, tc.front.URL, "alpha")
	placement := map[string]bool{}
	for _, base := range cluster.Replicas("alpha", tc.bases, 2) {
		placement[base] = true
	}
	for i, base := range tc.bases {
		if placement[base] {
			tc.backends[i].Close()
		}
	}

	// Reads flip to no_replica once the probes register the outage.
	waitFor(t, 5*time.Second, "read answered 503 no_replica", func() bool {
		resp, err := http.Get(tc.front.URL + "/v1/graphs/alpha")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Reason string `json:"reason"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			return false
		}
		return resp.StatusCode == http.StatusServiceUnavailable &&
			body.Reason == "no_replica" && resp.Header.Get("Retry-After") != ""
	})

	// Writes for the same placement key get the same honest verdict.
	status, hdr, body := postJSON(t, tc.front.URL+"/v1/graphs", map[string]any{
		"name": "alpha", "dataset": "D2", "seed": 42, "scale": 0.02,
	})
	var werr struct {
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(body, &werr); err != nil {
		t.Fatalf("write error body %q: %v", body, err)
	}
	if status != http.StatusServiceUnavailable || werr.Reason != "no_replica" || hdr.Get("Retry-After") == "" {
		t.Fatalf("write with placement set down: status %d reason %q retry-after %q, want 503 no_replica",
			status, werr.Reason, hdr.Get("Retry-After"))
	}

	// The surviving non-replica backend keeps the router's own health
	// endpoints honest: degraded, not dead.
	var h struct {
		Healthy int `json:"healthy_backends"`
	}
	getJSON(t, tc.front.URL+"/v1/cluster", &h)
	if h.Healthy != 1 {
		t.Fatalf("healthy_backends = %d, want 1", h.Healthy)
	}
}

// TestRouterProbeStagger: each backend's prober runs on its own
// decorrelated-jitter pace, so probes neither fire in lockstep across
// backends nor on a fixed metronome per backend — the synchronized
// probe burst would be a thundering herd at exactly the moment a
// struggling cluster least needs one.
func TestRouterProbeStagger(t *testing.T) {
	const n, interval = 3, 60 * time.Millisecond
	var mu sync.Mutex
	hits := make([][]time.Time, n)
	var bases []string
	for i := 0; i < n; i++ {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/readyz" {
				mu.Lock()
				hits[i] = append(hits[i], time.Now())
				mu.Unlock()
			}
			w.WriteHeader(http.StatusOK)
		}))
		t.Cleanup(ts.Close)
		bases = append(bases, ts.URL)
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Backends:       bases,
		ProbeInterval:  interval,
		RepairInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(12 * interval)
	rt.Close()

	mu.Lock()
	defer mu.Unlock()
	for i, stamps := range hits {
		if len(stamps) < 6 {
			t.Fatalf("backend %d: only %d probes in %v", i, len(stamps), 12*interval)
		}
		gaps := make([]time.Duration, 0, len(stamps)-1)
		minGap, maxGap, total := time.Duration(1<<62), time.Duration(0), time.Duration(0)
		for j := 1; j < len(stamps); j++ {
			gap := stamps[j].Sub(stamps[j-1])
			gaps = append(gaps, gap)
			if gap < minGap {
				minGap = gap
			}
			if gap > maxGap {
				maxGap = gap
			}
			total += gap
		}
		// The pace draws uniformly from [interval/2, 3*interval/2]: no
		// gap undershoots the jitter floor (minus scheduling slack), the
		// mean stays near the nominal interval, and the gaps actually
		// vary — a fixed metronome (all gaps equal) fails here.
		if minGap < interval/2-15*time.Millisecond {
			t.Fatalf("backend %d: gap %v below the jitter floor %v", i, minGap, interval/2)
		}
		if mean := total / time.Duration(len(gaps)); mean > 5*interval/2 {
			t.Fatalf("backend %d: mean probe gap %v, want ~%v", i, mean, interval)
		}
		if maxGap-minGap < 5*time.Millisecond {
			t.Fatalf("backend %d: probe gaps %v show no jitter (spread %v)", i, gaps, maxGap-minGap)
		}
	}
}
