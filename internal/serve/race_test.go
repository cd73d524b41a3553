package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"github.com/ccer-go/ccer/internal/serve"
)

// TestConcurrentClients hammers every endpoint from parallel clients.
// It asserts nothing about individual responses beyond "a sane status";
// its job is to let the race detector see the store, cache, job queue
// and counters under real contention (CI runs this package with -race).
func TestConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{CacheSize: 8, JobWorkers: 2})
	generateD2(t, ts.URL, "shared")

	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			own := fmt.Sprintf("own-%d", c)
			for round := 0; round < 3; round++ {
				// Overwrite a private graph and the shared one to churn
				// versions under concurrent matches.
				code := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs", map[string]any{
					"name": own, "dataset": "D1", "seed": c + 1, "scale": 0.01,
				}, nil)
				if code != http.StatusCreated {
					t.Errorf("client %d: generate status %d", c, code)
					return
				}
				for _, g := range []string{own, "shared"} {
					code = doJSON(t, http.MethodPost, ts.URL+"/v1/match", map[string]any{
						"graph": g, "algorithms": []string{"UMC", "CNC", "KRC"},
						"threshold": 0.5,
					}, nil)
					if code != http.StatusOK {
						t.Errorf("client %d: match status %d", c, code)
						return
					}
				}
				var sweep sweepRespJSON
				code = doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", map[string]any{
					"graph": own, "algorithms": []string{"UMC"},
				}, &sweep)
				// 503 (backlog full) is a legitimate answer under load.
				if code != http.StatusAccepted && code != http.StatusServiceUnavailable {
					t.Errorf("client %d: sweep status %d", c, code)
					return
				}
				if code == http.StatusAccepted && round == 1 {
					doJSON(t, http.MethodDelete, ts.URL+"/v1/sweeps/"+sweep.ID, nil, nil)
				}
				doJSON(t, http.MethodGet, ts.URL+"/v1/graphs", nil, nil)
				doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, nil)
				doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, nil)
			}
			doJSON(t, http.MethodDelete, ts.URL+"/v1/graphs/"+own, nil, nil)
		}(c)
	}
	wg.Wait()
}

// TestConcurrentMatchHits serves cache hits from parallel clients over
// all-eight and single-algorithm keys: every body must equal its key's
// first-hit body, so no reply is rendered into a buffer another reply
// still uses, and no hit returns another key's rendering or scores.
func TestConcurrentMatchHits(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	generateD2(t, ts.URL, "d2")
	var keys [][]byte
	for _, req := range []map[string]any{
		{"graph": "d2"},
		{"graph": "d2", "threshold": 0.3},
		{"graph": "d2", "algorithms": []string{"UMC"}},
		{"graph": "d2", "algorithms": []string{"BAH"}, "seed": 7},
		{"graph": "d2", "algorithms": []string{"KRC", "CNC"}, "threshold": 0.3},
	} {
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, raw)
	}
	post := func(raw []byte) ([]byte, error) {
		resp, err := http.Post(ts.URL+"/v1/match", "application/json", bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, body)
		}
		return body, err
	}
	// The miss computes each key's matchings; the first hit renders and
	// scores them for the cache.
	want := make([][]byte, len(keys))
	for i, raw := range keys {
		var err error
		for range 2 {
			if want[i], err = post(raw); err != nil {
				t.Fatalf("%s: %v", raw, err)
			}
		}
	}

	const clients, hits = 8, 50
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < hits; i++ {
				k := (c + i) % len(keys)
				got, err := post(keys[k])
				if err != nil {
					t.Errorf("client %d: %s: %v", c, keys[k], err)
					return
				}
				if !bytes.Equal(got, want[k]) {
					t.Errorf("client %d: %s: a %d-byte body differs from the first hit's %d bytes", c, keys[k], len(got), len(want[k]))
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
