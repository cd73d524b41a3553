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
	"time"

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
// instead ("a?x" read as "a", "a%2Fb" as "a/b", and so on). Last, a
// sweep id holding '?' is deleted through the router, which must not
// reach the sweep its unescaped prefix names.
func TestGraphNamesReachBackendsEscaped(t *testing.T) {
	tc := newTestCluster(t, 1, cluster.RouterConfig{Replicas: 1, RepairInterval: -1})
	backend := &cluster.Client{Base: tc.bases[0]}
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

	// A sweep id reaches the backend as itself too: deleting "sweep-1?z"
	// through the router must not cancel sweep-1. The sweep runs over a
	// generated graph, since a sweep needs ground truth, and the armed
	// fault holds it running until it is cancelled.
	if status, _, raw := postJSON(t, tc.front.URL+"/v1/graphs", map[string]any{
		"name": "swept", "dataset": "D2", "seed": 42, "scale": 0.02,
	}); status != http.StatusCreated {
		t.Fatalf("generate: status %d, reply %s", status, raw)
	}
	tc.faults[0].Set("sweep", time.Minute, nil, 1)
	status, _, raw := postJSON(t, tc.front.URL+"/v1/sweeps", map[string]any{"graph": "swept", "algorithms": []string{"UMC"}})
	var sweep struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if status != http.StatusAccepted || json.Unmarshal(raw, &sweep) != nil || sweep.ID == "" {
		t.Fatalf("sweep create: status %d, reply %s", status, raw)
	}
	state := func() string {
		t.Helper()
		if code := getJSON(t, tc.bases[0]+"/v1/sweeps/"+sweep.ID, &sweep); code != http.StatusOK {
			t.Fatalf("sweep %s on the backend: status %d", sweep.ID, code)
		}
		return sweep.State
	}
	waitFor(t, 10*time.Second, "sweep running", func() bool { return state() == "running" })
	target := tc.front.URL + "/v1/sweeps/" + url.PathEscape(sweep.ID+"?z")
	if got, raw := send(t, http.MethodDelete, target, "", nil); got != http.StatusNotFound {
		t.Fatalf("DELETE %s: status %d, reply %s; want 404", target, got, raw)
	}
	if s := state(); s != "running" {
		t.Fatalf("sweep %s is %q after deleting %q, want running", sweep.ID, s, sweep.ID+"?z")
	}
	if got, raw := send(t, http.MethodDelete, tc.front.URL+"/v1/sweeps/"+sweep.ID, "", nil); got != http.StatusOK {
		t.Fatalf("DELETE sweep %s: status %d, reply %s", sweep.ID, got, raw)
	}
}
