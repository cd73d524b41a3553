package cluster_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ccer-go/ccer/internal/cluster"
)

// relayFront starts a router over two stub backends and returns its
// URL and the match reads each handler served. The preferred replica of
// graph "g" answers POST /v1/match with first, the other with second;
// every other path, the router's /readyz probes among them, answers 200.
func relayFront(tb testing.TB, first, second http.HandlerFunc) (string, *[2]atomic.Int64) {
	tb.Helper()
	var hits [2]atomic.Int64
	handlers := [2]http.HandlerFunc{first, second}
	bases := make([]string, 2)
	roles := make([]int, 2)
	for i := range bases {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/match" {
				return
			}
			hits[roles[i]].Add(1)
			handlers[roles[i]](w, r)
		}))
		tb.Cleanup(ts.Close)
		bases[i] = ts.URL
	}
	if cluster.Replicas("g", bases, 2)[0] != bases[0] {
		roles[0] = 1
	} else {
		roles[1] = 1
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Backends: bases, Replicas: 2, RepairInterval: -1})
	if err != nil {
		tb.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	tb.Cleanup(func() {
		front.Close()
		rt.Close()
	})
	return front.URL, &hits
}

// fixedReply answers with body under status, declaring its length.
func fixedReply(status int, body []byte) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(status)
		_, _ = w.Write(body)
	}
}

// replyBytes is an n-byte body in which every offset matters.
func replyBytes(n int) []byte {
	body := make([]byte, n)
	for i := range body {
		body[i] = byte('a' + i*7%26)
	}
	return body
}

// TestRouterRelaysReplyBytes: a match reply reaches the client through
// the router byte for byte with the backend's status and content type,
// whether the backend declared its length or streamed it chunked. A
// backend whose body ends before its declared length, even one
// declaring 1 TiB, fails over to the next replica: none of its bytes
// are relayed, and the router never allocates the declared length.
func TestRouterRelaysReplyBytes(t *testing.T) {
	body := replyBytes(90_000)
	unused := fixedReply(http.StatusInternalServerError, []byte("second replica"))
	truncated := func(declared int64) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", strconv.FormatInt(declared, 10))
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte("0123456789"))
		}
	}
	for _, tc := range []struct {
		name          string
		first, second http.HandlerFunc
		status        int
		hits          [2]int64
	}{
		{"declared length", fixedReply(http.StatusOK, body), unused, http.StatusOK, [2]int64{1, 0}},
		{"chunked", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusAccepted)
			for rest := body; len(rest) > 0; rest = rest[min(len(rest), 4096):] {
				_, _ = w.Write(rest[:min(len(rest), 4096)])
				w.(http.Flusher).Flush()
			}
		}, unused, http.StatusAccepted, [2]int64{1, 0}},
		{"short body", truncated(100), fixedReply(http.StatusOK, body), http.StatusOK, [2]int64{1, 1}},
		{"declares 1 TiB", truncated(1 << 40), fixedReply(http.StatusOK, body), http.StatusOK, [2]int64{1, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			front, hits := relayFront(t, tc.first, tc.second)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			resp, err := http.Post(front+"/v1/match", "application/json", bytes.NewReader([]byte(`{"graph":"g"}`)))
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status || resp.Header.Get("Content-Type") != "application/json" || !bytes.Equal(got, body) {
				t.Fatalf("status %d, content type %q, %d bytes (equal: %v); want %d, application/json and the backend's %d bytes",
					resp.StatusCode, resp.Header.Get("Content-Type"), len(got), bytes.Equal(got, body), tc.status, len(body))
			}
			if h := [2]int64{hits[0].Load(), hits[1].Load()}; h != tc.hits {
				t.Fatalf("match reads (first, second replica) %v, want %v", h, tc.hits)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
				t.Fatalf("relaying a %d-byte reply allocated %d bytes", len(body), alloc)
			}
		})
	}
}

// TestRouterRelaysHead: a HEAD through the router answers with the
// backend's own status, for a graph that exists, one that does not and
// a sweep id no backend holds. A backend answers a HEAD with the
// Content-Length its GET body would have and no body; the router must
// not take that for a body that ended early. So after more HEADs than
// the breaker threshold, no backend's breaker has opened.
func TestRouterRelaysHead(t *testing.T) {
	tc := newTestCluster(t, 3, cluster.RouterConfig{Replicas: 2, RepairInterval: -1, ProbeInterval: time.Hour})
	if got, raw := send(t, http.MethodPost, tc.front.URL+"/v1/graphs?name=g", "text/plain", []byte("2 2\n0 0 0.5\n1 1 0.75\n")); got != http.StatusCreated {
		t.Fatalf("upload g: status %d, reply %s", got, raw)
	}
	for _, c := range []struct {
		path   string
		status int
	}{
		{"/v1/graphs/g", http.StatusOK},
		{"/v1/graphs/missing", http.StatusNotFound},
		{"/v1/sweeps/x", http.StatusNotFound},
	} {
		direct, err := http.Head(cluster.Replicas("g", tc.bases, 2)[0] + c.path)
		if err != nil {
			t.Fatal(err)
		}
		direct.Body.Close()
		if direct.StatusCode != c.status || direct.ContentLength <= 0 {
			t.Fatalf("HEAD %s on a backend: status %d, declared length %d; want %d and a length",
				c.path, direct.StatusCode, direct.ContentLength, c.status)
		}
		for range 4 {
			if got, raw := send(t, http.MethodHead, tc.front.URL+c.path, "", nil); got != c.status || len(raw) != 0 {
				t.Fatalf("HEAD %s through the router: status %d, %d body bytes; want %d and none", c.path, got, len(raw), c.status)
			}
		}
	}
	var state struct {
		Backends []cluster.BackendState `json:"backends"`
	}
	if code := getJSON(t, tc.front.URL+"/v1/cluster", &state); code != http.StatusOK || len(state.Backends) != 3 {
		t.Fatalf("GET /v1/cluster: status %d, %d backends", code, len(state.Backends))
	}
	for _, b := range state.Backends {
		if b.Breaker != "closed" || b.Opens != 0 {
			t.Fatalf("backend %s: breaker %s, opened %d times; want closed, never opened", b.URL, b.Breaker, b.Opens)
		}
	}
}

// BenchmarkRouterRead routes match reads of a fixed reply through the
// router, the loadbench routed workload's hop without the matchers: a
// 90 KiB reply (routed's mean) and a 250 KiB one (all eight matchers'
// pairs). The client discards the relayed body, so the allocations per
// read are the stub backend's, the router's and the client's request
// overhead plus the router's copy of the reply.
func BenchmarkRouterRead(b *testing.B) {
	for _, size := range []int{90 << 10, 250 << 10} {
		b.Run(strconv.Itoa(size>>10)+"KiB", func(b *testing.B) {
			reply := fixedReply(http.StatusOK, replyBytes(size))
			front, _ := relayFront(b, reply, reply)
			req := []byte(`{"graph":"g","threshold":0.5}`)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				resp, err := http.Post(front+"/v1/match", "application/json", bytes.NewReader(req))
				if err != nil {
					b.Fatal(err)
				}
				n, err := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || n != int64(size) {
					b.Fatalf("status %d, %d bytes, %v", resp.StatusCode, n, err)
				}
			}
		})
	}
}
