package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"net/url"
	"testing"

	"github.com/ccer-go/ccer/internal/cluster"
)

// send runs one request and returns its status and body.
func send(t *testing.T, method, target, contentType string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, target, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
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
	return resp.StatusCode, raw
}

// TestGraphNamesReachBackendsEscaped: a graph name holding URL
// metacharacters reaches the backend as itself on every path that
// names a graph. Each name is uploaded, read, matched and deleted
// through the router, and synced through the Client the way repair
// does it (EdgeList, SyncPutEdgeList, SyncDelete). After every step the
// backend must hold exactly the expected names at the expected
// versions; the decoys are the names an unescaped path would reach
// instead ("a?x" read as "a", "a%2Fb" as "a/b", and so on).
func TestGraphNamesReachBackendsEscaped(t *testing.T) {
	tc := newTestCluster(t, 1, cluster.RouterConfig{Replicas: 1, RepairInterval: -1})
	backend := &cluster.Client{Base: tc.bases[0], MaxRetries: -1}
	ctx := context.Background()
	edges := []byte("2 2\n0 0 0.5\n1 1 0.75\n")
	want := map[string]int64{}
	for _, decoy := range []string{"a", "a/b", "b", "50", "corp"} {
		if _, err := backend.SyncPutEdgeList(ctx, decoy, 1, []byte("1 1\n0 0 1\n")); err != nil {
			t.Fatal(err)
		}
		want[decoy] = 1
	}
	check := func(step string) {
		t.Helper()
		listing, err := backend.ListSync(ctx)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		got := map[string]int64{}
		for _, e := range listing.Graphs {
			got[e.Name] = e.Version
		}
		if !maps.Equal(got, want) {
			t.Fatalf("after %s the backend holds %v, want %v", step, got, want)
		}
	}
	for _, name := range []string{"a?x", "a#b", "a%2Fb", "a&sync_version=7", "50%", "a b", "corp/x/y"} {
		// call sends one request through the router and requires the
		// status and, in the JSON reply's field, the name itself.
		call := func(method, target, contentType string, body []byte, status int, field string) []byte {
			t.Helper()
			got, raw := send(t, method, tc.front.URL+target, contentType, body)
			var reply map[string]any
			if got != status || field != "" && (json.Unmarshal(raw, &reply) != nil || reply[field] != name) {
				t.Fatalf("%s %s: status %d, reply %s; want %d with %s %q", method, target, got, raw, status, field, name)
			}
			return raw
		}
		graphPath := "/v1/graphs/" + url.PathEscape(name)
		call(http.MethodPost, "/v1/graphs?name="+url.QueryEscape(name), "text/plain", edges, http.StatusCreated, "name")
		want[name] = 1
		check("upload " + name)
		call(http.MethodGet, graphPath, "", nil, http.StatusOK, "name")
		if raw := call(http.MethodGet, graphPath+"?format=edgelist", "", nil, http.StatusOK, ""); !bytes.Equal(raw, edges) {
			t.Fatalf("edge list of %q through the router: %q", name, raw)
		}
		match, _ := json.Marshal(map[string]any{"graph": name, "algorithms": []string{"UMC"}, "threshold": 0.1})
		call(http.MethodPost, "/v1/match", "application/json", match, http.StatusOK, "graph")

		el, err := backend.EdgeList(ctx, name)
		if err != nil || !bytes.Equal(el, edges) {
			t.Fatalf("EdgeList(%q) = %q, %v", name, el, err)
		}
		if applied, err := backend.SyncPutEdgeList(ctx, name, 5, el); !applied || err != nil {
			t.Fatalf("SyncPutEdgeList(%q, 5) = %v, %v", name, applied, err)
		}
		want[name] = 5
		check("sync put " + name)
		call(http.MethodDelete, graphPath, "", nil, http.StatusOK, "deleted")
		delete(want, name)
		check("delete " + name)
		if applied, err := backend.SyncPutEdgeList(ctx, name, 9, el); !applied || err != nil {
			t.Fatalf("SyncPutEdgeList(%q, 9) = %v, %v", name, applied, err)
		}
		want[name] = 9
		check("sync re-create " + name)
		if applied, err := backend.SyncDelete(ctx, name, 9); !applied || err != nil {
			t.Fatalf("SyncDelete(%q, 9) = %v, %v", name, applied, err)
		}
		delete(want, name)
		check("sync delete " + name)
	}
}
