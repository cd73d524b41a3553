package serve_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"github.com/ccer-go/ccer/internal/serve"
)

// countingWriter is a ResponseWriter that counts the body bytes it is
// given and keeps none of them.
type countingWriter struct {
	header http.Header
	status int
	n      int
}

func (w *countingWriter) Header() http.Header { return w.header }

func (w *countingWriter) WriteHeader(status int) { w.status = status }

func (w *countingWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

// TestMatchHitAllocation serves 200 cache hits of an all-eight match
// reply on a D2 graph at scale 0.2 (about 97 KB) through the handler and
// requires each hit to allocate under a quarter of its reply: a hit
// copies the rendering its entry keeps and reuses the entry's scores,
// and renders into a buffer that an earlier reply left behind.
func TestMatchHitAllocation(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	srv, ts := newTestServer(t, serve.Config{})
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs", map[string]any{
		"name": "d2", "dataset": "D2", "seed": 42, "scale": 0.2,
	}, nil); code != http.StatusCreated {
		t.Fatalf("generate: status %d", code)
	}
	h := srv.Handler()
	serveMatch := func(w http.ResponseWriter) {
		body := bytes.NewReader([]byte(`{"graph":"d2","threshold":0.3}`))
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/match", body))
	}
	// The miss computes the matchings; the first hit renders and scores
	// them for the cache.
	var replyLen int
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		serveMatch(rec)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i+1, rec.Code, rec.Body)
		}
		replyLen = rec.Body.Len()
	}

	const hits = 200
	w := &countingWriter{header: http.Header{}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < hits; i++ {
		w.status, w.n = 0, 0
		serveMatch(w)
		if w.status != http.StatusOK || w.n != replyLen {
			t.Fatalf("hit %d: status %d, %d bytes, want 200 and %d", i+1, w.status, w.n, replyLen)
		}
	}
	runtime.ReadMemStats(&after)
	perHit := float64(after.TotalAlloc-before.TotalAlloc) / hits
	t.Logf("a hit allocates %.0f B for a %d B reply (%.2fx)", perHit, replyLen, perHit/float64(replyLen))
	if perHit >= float64(replyLen)/4 {
		t.Fatalf("a hit allocates %.0f B, a quarter of its %d B reply is %d B", perHit, replyLen, replyLen/4)
	}
}
