package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/ccer-go/ccer/internal/core"
	"github.com/ccer-go/ccer/internal/graph"
	"github.com/ccer-go/ccer/internal/serve"
)

// tinyGraph is a 2x2 graph with one edge per left node.
func tinyGraph() *graph.Builder {
	b := graph.NewBuilder(2, 2)
	b.Add(0, 0, 0.9)
	b.Add(1, 1, 0.4)
	return b
}

// errorBody decodes a rejection's JSON error; "" when the body is not
// JSON or carries none.
func errorBody(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) != nil {
		return ""
	}
	return e.Error
}

// TestJSONBodyRejectsTrailingData: a JSON request body holds one value
// and nothing after it but white space. POST /v1/match, JSON
// POST /v1/graphs and POST /v1/sweeps answer 400 with the route's "bad
// ... request" message to a trailing byte, a second object or a stray
// bracket, and store, run or queue nothing; a trailing newline or space
// is accepted.
func TestJSONBodyRejectsTrailingData(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{JobWorkers: 1})
	postEdgeList(t, ts.URL+"/v1/graphs?name=g", tinyGraph())

	type counters struct {
		GraphsStored  int   `json:"graphs_stored"`
		GraphsCreated int64 `json:"graphs_created_total"`
		MatchingsRun  int64 `json:"matchings_run_total"`
		CacheSize     int   `json:"cache_size"`
		SweepsCreated int64 `json:"sweeps_created_total"`
	}
	read := func() counters {
		var c counters
		doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &c)
		return c
	}
	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
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
	routes := []struct {
		path, body, message string
		ok                  int
	}{
		{"/v1/match", `{"graph":"g","algorithms":["KRC"]}`, "bad match request", http.StatusOK},
		{"/v1/graphs", `{"name":"gen","dataset":"D2","seed":3,"scale":0.02}`, "bad generate request", http.StatusCreated},
		{"/v1/sweeps", `{"graph":"g","algorithms":["KRC"]}`, "bad sweep request", http.StatusAccepted},
	}
	for _, rt := range routes {
		for _, tail := range []string{"x", `{"graph":"g"}`, " {}", "]", "\n]"} {
			before := read()
			code, body := post(rt.path, rt.body+tail)
			if code != http.StatusBadRequest || !strings.HasPrefix(errorBody(body), rt.message) {
				t.Fatalf("%s %q: status %d %s, want 400 %q", rt.path, rt.body+tail, code, body, rt.message)
			}
			if after := read(); after != before {
				t.Fatalf("%s %q: rejected, but the counters moved from %+v to %+v", rt.path, rt.body+tail, before, after)
			}
		}
	}
	for _, rt := range routes {
		for _, tail := range []string{"\n", " ", " \t\r\n"} {
			if code, body := post(rt.path, rt.body+tail); code != rt.ok {
				t.Fatalf("%s %q: status %d %s, want %d", rt.path, rt.body+tail, code, body, rt.ok)
			}
		}
	}
}

// FuzzSweepRequest posts raw bodies to POST /v1/sweeps through the
// handler of one server per process, which holds one tiny uploaded
// graph, and cancels every accepted job at once. Every reply must be
// 202, 400, 404 or 503; a rejection is JSON with a non-empty error, and
// a 503 carries a Retry-After of at least one second. After a 202,
// GET /v1/sweeps/{id} must return the job pinned to the graph's name
// and version, with the paper's eight algorithms when the body named
// none, at least one repeat and a nonzero seed.
func FuzzSweepRequest(f *testing.F) {
	srv, err := serve.New(serve.Config{JobWorkers: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			f.Errorf("server close: %v", err)
		}
	})
	h := srv.Handler()
	do := func(method, path, contentType string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	var wire bytes.Buffer
	if err := tinyGraph().MustBuild().WriteEdgeList(&wire); err != nil {
		f.Fatal(err)
	}
	up := do(http.MethodPost, "/v1/graphs?name=g", "text/plain", wire.Bytes())
	if up.Code != http.StatusCreated {
		f.Fatalf("upload: status %d: %s", up.Code, up.Body)
	}
	var stored graphInfoJSON
	if err := json.Unmarshal(up.Body.Bytes(), &stored); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := do(http.MethodPost, "/v1/sweeps", "application/json", body)
		switch rec.Code {
		case http.StatusAccepted:
		case http.StatusBadRequest, http.StatusNotFound, http.StatusServiceUnavailable:
			if errorBody(rec.Body.Bytes()) == "" {
				t.Fatalf("%q: status %d without a JSON error: %q", body, rec.Code, rec.Body)
			}
			if rec.Code == http.StatusServiceUnavailable {
				if secs, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || secs < 1 {
					t.Fatalf("%q: 503 with Retry-After %q", body, rec.Header().Get("Retry-After"))
				}
			}
			return
		default:
			t.Fatalf("%q: status %d: %s", body, rec.Code, rec.Body)
		}
		var accepted struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &accepted); err != nil || accepted.ID == "" {
			t.Fatalf("%q: 202 without a job id: %q", body, rec.Body)
		}
		got := do(http.MethodGet, "/v1/sweeps/"+accepted.ID, "", nil)
		if cancel := do(http.MethodDelete, "/v1/sweeps/"+accepted.ID, "", nil); cancel.Code != http.StatusOK {
			t.Fatalf("%q: cancel %s: status %d: %s", body, accepted.ID, cancel.Code, cancel.Body)
		}
		if got.Code != http.StatusOK {
			t.Fatalf("%q: GET %s: status %d: %s", body, accepted.ID, got.Code, got.Body)
		}
		var job struct {
			Graph        string   `json:"graph"`
			GraphVersion int64    `json:"graph_version"`
			Algorithms   []string `json:"algorithms"`
			Repeats      int      `json:"repeats"`
			Seed         int64    `json:"seed"`
		}
		if err := json.Unmarshal(got.Body.Bytes(), &job); err != nil {
			t.Fatalf("%q: job %s is not JSON: %q", body, accepted.ID, got.Body)
		}
		var req struct {
			Algorithms []string `json:"algorithms"`
		}
		_ = json.Unmarshal(body, &req)
		switch {
		case job.Graph != stored.Name || job.GraphVersion != stored.Version:
			t.Fatalf("%q: job pinned to %q v%d, want %q v%d", body, job.Graph, job.GraphVersion, stored.Name, stored.Version)
		case len(req.Algorithms) == 0 && !reflect.DeepEqual(job.Algorithms, core.Names()):
			t.Fatalf("%q: body names no algorithm, job runs %v, want %v", body, job.Algorithms, core.Names())
		case len(req.Algorithms) > 0 && !slices.Equal(job.Algorithms, req.Algorithms):
			t.Fatalf("%q: job runs %v, body named %v", body, job.Algorithms, req.Algorithms)
		case job.Repeats < 1:
			t.Fatalf("%q: job repeats %d", body, job.Repeats)
		case job.Seed == 0:
			t.Fatalf("%q: job seed 0", body)
		}
	})
}
