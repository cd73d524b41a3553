package serve_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/ccer-go/ccer/internal/durable/crashtest"
	"github.com/ccer-go/ccer/internal/serve"
)

// durableMetricsJSON picks out the durability and cache counters of
// /metrics that the integration tests below assert on.
type durableMetricsJSON struct {
	GraphsStored        int   `json:"graphs_stored"`
	CacheSize           int   `json:"cache_size"`
	CacheEvictionsTotal int64 `json:"cache_evictions_total"`
	JournalRecordsTotal int64 `json:"journal_records_total"`
	RecoveryNS          int64 `json:"recovery_ns"`
	SnapshotBytes       int64 `json:"snapshot_bytes"`
	CompactionsTotal    int64 `json:"compactions_total"`
}

// startDurable opens a server over the given FS without registering any
// cleanup, so tests can close and reopen it mid-test.
func startDurable(t *testing.T, fs *crashtest.MemFS) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv, err := serve.New(serve.Config{
		DataDir:    "data",
		DataFS:     fs,
		JobWorkers: 1,
	})
	if err != nil {
		t.Fatalf("open durable server: %v", err)
	}
	return srv, httptest.NewServer(srv.Handler())
}

func closeServer(t *testing.T, srv *serve.Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatalf("server close: %v", err)
	}
}

// TestDurableRestartPreservesGraphs drives the full service loop through
// the durable store: generate (single and family mode), delete, restart
// on the same filesystem, and require the surviving state — names,
// versions, checksums, ground truth — to come back identically.
func TestDurableRestartPreservesGraphs(t *testing.T) {
	mem := crashtest.NewMemFS()
	srv, ts := startDurable(t, mem)

	single := generateD2(t, ts.URL, "keep")
	doomed := generateD2(t, ts.URL, "doomed")
	var fam struct {
		Graphs []graphInfoJSON `json:"graphs"`
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs", map[string]any{
		"name": "fam", "dataset": "D2", "seed": 7, "scale": 0.02, "family": "SB-SYN",
	}, &fam); code != http.StatusCreated {
		t.Fatalf("family generate: status %d", code)
	}
	if len(fam.Graphs) == 0 {
		t.Fatal("family generate stored no graphs")
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/graphs/"+doomed.Name, nil, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	want := map[string]graphInfoJSON{single.Name: single}
	for _, g := range fam.Graphs {
		want[g.Name] = g
	}
	g1 := fetchGraph(t, ts.URL, single.Name)
	var m0 durableMetricsJSON
	doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &m0)
	if m0.JournalRecordsTotal <= 0 {
		t.Fatalf("journal_records_total = %d after mutations, want > 0", m0.JournalRecordsTotal)
	}
	closeServer(t, srv, ts)

	srv2, ts2 := startDurable(t, mem)
	defer closeServer(t, srv2, ts2)

	var list struct {
		Graphs []graphInfoJSON `json:"graphs"`
	}
	doJSON(t, http.MethodGet, ts2.URL+"/v1/graphs", nil, &list)
	if len(list.Graphs) != len(want) {
		t.Fatalf("recovered %d graphs, want %d", len(list.Graphs), len(want))
	}
	for _, g := range list.Graphs {
		w, ok := want[g.Name]
		if !ok {
			t.Fatalf("recovered unexpected graph %q (deleted graph resurrected?)", g.Name)
		}
		if g.Checksum != w.Checksum || g.Version != w.Version {
			t.Fatalf("graph %q recovered as v%d/%s, want v%d/%s",
				g.Name, g.Version, g.Checksum, w.Version, w.Checksum)
		}
		if g.HasGroundTruth != w.HasGroundTruth {
			t.Fatalf("graph %q ground truth lost across restart", g.Name)
		}
	}
	// Byte-identical content, not just matching metadata.
	g2 := fetchGraph(t, ts2.URL, single.Name)
	if g1.Checksum() != g2.Checksum() {
		t.Fatalf("edge list changed across restart: %016x != %016x", g1.Checksum(), g2.Checksum())
	}
	// Matching the recovered graph still evaluates against ground truth.
	var mr matchRespJSON
	if code := doJSON(t, http.MethodPost, ts2.URL+"/v1/match", map[string]any{
		"graph": single.Name, "algorithms": []string{"CNC"},
	}, &mr); code != http.StatusOK {
		t.Fatalf("match on recovered graph: status %d", code)
	}
	if len(mr.Results) != 1 || mr.Results[0].Metrics == nil {
		t.Fatalf("recovered graph lost its ground truth: %+v", mr.Results)
	}

	var m durableMetricsJSON
	doJSON(t, http.MethodGet, ts2.URL+"/metrics", nil, &m)
	if m.RecoveryNS <= 0 {
		t.Fatalf("recovery_ns = %d, want > 0", m.RecoveryNS)
	}
	// Clean shutdown compacts the journal into the manifest, so the new
	// instance starts with zero journal records; the snapshot carries
	// the state instead.
	if m.SnapshotBytes <= 0 {
		t.Fatalf("snapshot_bytes = %d after recovery, want > 0", m.SnapshotBytes)
	}
}

// TestDeleteEvictsCachedMatchings is the regression test for DELETE
// /v1/graphs/{name} leaving result-cache entries pinned: deleting a
// graph must eagerly drop its cached matchings, visible as cache_size
// falling back to zero on /metrics.
func TestDeleteEvictsCachedMatchings(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	info := generateD2(t, ts.URL, "g")

	var mr matchRespJSON
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/match", map[string]any{
		"graph": "g", "algorithms": []string{"CNC", "RSR"},
	}, &mr); code != http.StatusOK {
		t.Fatalf("match: status %d", code)
	}
	var before durableMetricsJSON
	doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &before)
	if before.CacheSize < 2 {
		t.Fatalf("cache_size = %d after matching 2 algorithms, want >= 2", before.CacheSize)
	}

	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/graphs/"+info.Name, nil, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	var after durableMetricsJSON
	doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &after)
	if after.CacheSize != 0 {
		t.Fatalf("cache_size = %d after deleting the only graph, want 0 (entries pinned)", after.CacheSize)
	}
	if after.CacheEvictionsTotal <= before.CacheEvictionsTotal {
		t.Fatalf("cache_evictions_total did not grow on delete: %d -> %d",
			before.CacheEvictionsTotal, after.CacheEvictionsTotal)
	}
}
