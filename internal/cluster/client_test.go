package cluster_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ccer-go/ccer/internal/cluster"
)

// flakyBackend answers failStatus for the first fail requests to each
// path, then delegates to ok.
type flakyBackend struct {
	failStatus int
	fails      atomic.Int64
	hits       atomic.Int64
	ok         http.HandlerFunc
	retryAfter string
}

func (f *flakyBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.hits.Add(1)
	if f.fails.Load() > 0 {
		f.fails.Add(-1)
		if f.retryAfter != "" {
			w.Header().Set("Retry-After", f.retryAfter)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(f.failStatus)
		_, _ = w.Write([]byte(`{"error":"injected failure","reason":"queue_full"}`))
		return
	}
	f.ok(w, r)
}

const edgeList = "1 1\n0 0 1\n"

func okEdgeList(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(edgeList))
}

// TestClientRetriesReadOn5xx: a read retries raw 5xx under backoff and
// succeeds once the backend recovers.
func TestClientRetriesReadOn5xx(t *testing.T) {
	fb := &flakyBackend{failStatus: http.StatusInternalServerError, ok: okEdgeList}
	fb.fails.Store(2)
	ts := httptest.NewServer(fb)
	defer ts.Close()
	c := &cluster.Client{Base: ts.URL, RetryBase: time.Millisecond, RetryCap: 5 * time.Millisecond}
	got, err := c.EdgeList(context.Background(), "g")
	if err != nil {
		t.Fatalf("edge list after transient 500s: %v", err)
	}
	if string(got) != edgeList || fb.hits.Load() != 3 {
		t.Fatalf("body %q after %d hits, want success on 3rd", got, fb.hits.Load())
	}
}

// TestClientDoesNotRetryMutationOn5xx: a mutation that died mid-flight
// (raw 500) is surfaced, not re-sent.
func TestClientDoesNotRetryMutationOn5xx(t *testing.T) {
	fb := &flakyBackend{failStatus: http.StatusInternalServerError, ok: okEdgeList}
	fb.fails.Store(1)
	ts := httptest.NewServer(fb)
	defer ts.Close()
	c := &cluster.Client{Base: ts.URL, RetryBase: time.Millisecond}
	err := c.Mutate(context.Background(), "/v1/graphs", []byte(`{"name":"g","dataset":"D2"}`))
	var apiErr *cluster.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Fatalf("err = %v, want APIError 500", err)
	}
	if fb.hits.Load() != 1 {
		t.Fatalf("mutation hit the backend %d times, want exactly 1", fb.hits.Load())
	}
}

// TestClientRetriesMutationOnShed: a 503 shed means the server refused
// before doing any work, so even a mutation retries it.
func TestClientRetriesMutationOnShed(t *testing.T) {
	fb := &flakyBackend{failStatus: http.StatusServiceUnavailable, ok: func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		_, _ = w.Write([]byte(`{"name":"g","version":1}`))
	}}
	fb.fails.Store(2)
	ts := httptest.NewServer(fb)
	defer ts.Close()
	c := &cluster.Client{Base: ts.URL, RetryBase: time.Millisecond, RetryCap: 5 * time.Millisecond}
	if err := c.Mutate(context.Background(), "/v1/graphs", []byte(`{"name":"g","dataset":"D2"}`)); err != nil {
		t.Fatalf("generate after sheds: %v", err)
	}
	if fb.hits.Load() != 3 {
		t.Fatalf("generate succeeded after %d hits, want 3", fb.hits.Load())
	}
}

// TestClientHonorsRetryAfterWithinDeadline: the server's Retry-After
// (1s — longer than the caller's budget) is respected, which means the
// call gives up at its deadline instead of hammering sooner with
// computed backoff. The parsed hint must surface on the error.
func TestClientHonorsRetryAfterWithinDeadline(t *testing.T) {
	fb := &flakyBackend{failStatus: http.StatusServiceUnavailable, retryAfter: "1", ok: okEdgeList}
	fb.fails.Store(100)
	ts := httptest.NewServer(fb)
	defer ts.Close()
	c := &cluster.Client{Base: ts.URL, RetryBase: time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.EdgeList(ctx, "g")
	elapsed := time.Since(start)
	var apiErr *cluster.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want APIError", err)
	}
	if apiErr.RetryAfter != time.Second || apiErr.Reason != "queue_full" {
		t.Fatalf("APIError = %+v, want RetryAfter=1s reason=queue_full", apiErr)
	}
	// Exactly one attempt: the 1s Retry-After exceeded the 200ms budget,
	// so the client waited out its deadline rather than retrying early.
	if fb.hits.Load() != 1 {
		t.Fatalf("backend hit %d times within a 200ms budget against a 1s Retry-After, want 1", fb.hits.Load())
	}
	if elapsed > time.Second {
		t.Fatalf("call outlived its deadline: %v", elapsed)
	}
}

// TestClientRetriesConnRefused: a refused connection provably never
// reached a server, so even mutations retry it — the crashed-backend
// recovery path.
func TestClientRetriesConnRefused(t *testing.T) {
	// Reserve an address with nothing listening.
	ts := httptest.NewServer(http.HandlerFunc(okEdgeList))
	base := ts.URL
	ts.Close()
	c := &cluster.Client{Base: base, MaxRetries: 2, RetryBase: time.Millisecond, RetryCap: 2 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	err := c.Mutate(ctx, "/v1/graphs", []byte(`{"name":"g","dataset":"D2"}`))
	if err == nil {
		t.Fatal("generate against a dead address succeeded")
	}
	// 3 attempts with ~1-3ms backoffs: fast failure, not a hang.
	if time.Since(start) > time.Second {
		t.Fatalf("refused-connection retries took %v", time.Since(start))
	}
}
