// Readiness, shed-contract and disconnect-accounting tests: the serve-
// side half of the cluster contract. A router believes /readyz, expects
// every 503 to carry a Retry-After, and must not see its own cancelled
// hedges reflected back as backend errors — each promise is fenced here.
package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/ccer-go/ccer/internal/durable/crashtest"
	"github.com/ccer-go/ccer/internal/resilience"
	"github.com/ccer-go/ccer/internal/serve"
)

// getReadyz fetches /readyz and returns status plus the decoded body.
func getReadyz(t *testing.T, base string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("readyz body: %v", err)
	}
	return resp.StatusCode, body
}

// TestReadyzDrainSplitsFromHealthz: readiness and liveness are separate
// signals. BeginDrain flips /readyz to 503 ("take me out of rotation")
// while /healthz stays 200 ("do not restart me") and the data plane
// keeps serving in-flight work.
func TestReadyzDrainSplitsFromHealthz(t *testing.T) {
	srv, ts := newTestServer(t, serve.Config{})
	generateD2(t, ts.URL, "d2")

	if status, body := getReadyz(t, ts.URL); status != http.StatusOK || body["ready"] != true {
		t.Fatalf("fresh server readyz = %d %v, want 200 ready", status, body)
	}

	srv.BeginDrain()
	status, body := getReadyz(t, ts.URL)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", status)
	}
	if body["status"] != "draining" || body["ready"] != false {
		t.Fatalf("draining readyz body = %v", body)
	}

	// Liveness is unaffected and the data plane still answers: a drain
	// is about new traffic, not about killing what is already here.
	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz during drain = %d, want 200", code)
	}
	var mr matchRespJSON
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/match", map[string]any{
		"graph": "d2", "algorithms": []string{"UMC"}, "threshold": 0.5,
	}, &mr); code != http.StatusOK {
		t.Fatalf("match during drain = %d, want 200", code)
	}
}

// TestReadyzDegradedJournal: a latched durable-log failure makes the
// node not-ready (it is refusing every mutation), so a health-checking
// router stops routing writes to it.
func TestReadyzDegradedJournal(t *testing.T) {
	faulty := crashtest.NewFaultFS(crashtest.NewMemFS())
	_, ts := newTestServer(t, serve.Config{DataDir: "data", DataFS: faulty, JobWorkers: 1})
	generateD2(t, ts.URL, "d2")

	if status, _ := getReadyz(t, ts.URL); status != http.StatusOK {
		t.Fatalf("pre-fault readyz = %d, want 200", status)
	}
	faulty.Inject(crashtest.Fault{Point: "sync:wal"})
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs", map[string]any{
		"name": "lost", "dataset": "D2", "seed": 7, "scale": 0.02,
	}, nil); code != http.StatusInternalServerError {
		t.Fatalf("latching put: status %d, want 500", code)
	}
	status, body := getReadyz(t, ts.URL)
	if status != http.StatusServiceUnavailable || body["status"] != "degraded" {
		t.Fatalf("degraded readyz = %d %v, want 503 degraded", status, body)
	}
}

// TestEvery503ShedPathEmitsRetryAfter is the regression fence on the
// shed contract: every path that answers 503 — admission queue full,
// admission budget exhausted, degraded log, sweep backlog, job queue
// shut down — must carry a Retry-After header and a machine-readable
// reason. A cluster client schedules its retry off that header; a 503
// without it would silently fall back to computed backoff.
func TestEvery503ShedPathEmitsRetryAfter(t *testing.T) {
	t.Run("queue_full_and_timeout", func(t *testing.T) {
		faults := resilience.NewFaults()
		faults.Set("match", time.Second, nil, -1)
		_, ts := newTestServer(t, serve.Config{
			CacheSize:       -1,
			AdmissionSlots:  1,
			AdmissionDepth:  1,
			AdmissionBudget: 150 * time.Millisecond,
			Faults:          faults,
		})
		generateD2(t, ts.URL, "d2")

		// Leader occupies the single slot for ~1s; the next unique match
		// waits in the queue until its 150ms budget expires
		// (queue_timeout); with the queue occupied, a third is refused on
		// arrival (queue_full).
		var wg sync.WaitGroup
		launch := func(thr float64, wantReason string) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				status, hdr, body, err := postRaw(ts.URL+"/v1/match", map[string]any{
					"graph": "d2", "algorithms": []string{"UMC"}, "threshold": thr,
				})
				if err != nil {
					t.Errorf("match %g: %v", thr, err)
					return
				}
				if wantReason == "" {
					if status != http.StatusOK {
						t.Errorf("leader match: status %d (body %s)", status, body)
					}
					return
				}
				if status != http.StatusServiceUnavailable {
					t.Errorf("match %g: status %d (body %s), want 503 %s", thr, status, body, wantReason)
					return
				}
				requireShedResponse(t, hdr, body, wantReason)
			}()
		}
		launch(0.50, "") // leader: holds the slot
		time.Sleep(100 * time.Millisecond)
		launch(0.51, resilience.ReasonQueueTimeout) // queued, budget expires
		time.Sleep(50 * time.Millisecond)
		launch(0.52, resilience.ReasonQueueFull) // queue occupied: refused
		wg.Wait()
	})

	t.Run("degraded", func(t *testing.T) {
		faulty := crashtest.NewFaultFS(crashtest.NewMemFS())
		_, ts := newTestServer(t, serve.Config{DataDir: "data", DataFS: faulty, JobWorkers: 1})
		generateD2(t, ts.URL, "d2")
		faulty.Inject(crashtest.Fault{Point: "sync:wal"})
		doJSON(t, http.MethodPost, ts.URL+"/v1/graphs", map[string]any{
			"name": "lost", "dataset": "D2", "seed": 7, "scale": 0.02,
		}, nil)
		status, hdr, body, err := postRaw(ts.URL+"/v1/graphs", map[string]any{
			"name": "more", "dataset": "D2", "seed": 8, "scale": 0.02,
		})
		if err != nil || status != http.StatusServiceUnavailable {
			t.Fatalf("degraded generate: status %d err %v", status, err)
		}
		requireShedResponse(t, hdr, body, resilience.ReasonDegraded)
	})

	t.Run("sweep_backlog", func(t *testing.T) {
		faults := resilience.NewFaults()
		faults.Set("sweep", 5*time.Second, nil, -1)
		_, ts := newTestServer(t, serve.Config{
			JobWorkers:    1,
			JobQueueDepth: 1,
			Faults:        faults,
		})
		generateD2(t, ts.URL, "d2")
		payload := map[string]any{"graph": "d2", "algorithms": []string{"UMC"}}
		// First sweep runs (parked on the fault), second fills the queue.
		for i := 0; i < 2; i++ {
			if code := doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", payload, nil); code != http.StatusAccepted {
				t.Fatalf("sweep %d: status %d, want 202", i, code)
			}
		}
		// Give the worker a moment to dequeue the first so depth is
		// deterministic, then overflow.
		deadline := time.Now().Add(2 * time.Second)
		for {
			status, hdr, body, err := postRaw(ts.URL+"/v1/sweeps", payload)
			if err != nil {
				t.Fatal(err)
			}
			if status == http.StatusServiceUnavailable {
				requireShedResponse(t, hdr, body, resilience.ReasonBacklog)
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("sweep overflow: status %d (body %s), want 503", status, body)
			}
			time.Sleep(10 * time.Millisecond)
		}
	})

	t.Run("shutting_down", func(t *testing.T) {
		// Manual lifecycle: the job queue is closed mid-test, so the
		// shared helper's deferred Close would double-close it.
		srv, err := serve.New(serve.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		generateD2(t, ts.URL, "d2")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			t.Fatal(err)
		}
		status, hdr, body, err := postRaw(ts.URL+"/v1/sweeps", map[string]any{
			"graph": "d2", "algorithms": []string{"UMC"},
		})
		if err != nil || status != http.StatusServiceUnavailable {
			t.Fatalf("post-close sweep: status %d err %v (body %s)", status, err, body)
		}
		requireShedResponse(t, hdr, body, "shutting_down")
	})
}

// TestClientDisconnectCountsAs499: a client that hangs up mid-request
// is accounted as 499 — visible in the JSON and Prometheus metrics as
// client_disconnects_total, and NOT as a 5xx. This is what keeps a
// router's cancelled hedges and abandoned retries from reading as
// backend failures and tripping circuit breakers.
func TestClientDisconnectCountsAs499(t *testing.T) {
	faults := resilience.NewFaults()
	faults.Set("match", 500*time.Millisecond, nil, -1)
	_, ts := newTestServer(t, serve.Config{Faults: faults})
	generateD2(t, ts.URL, "d2")

	raw, _ := json.Marshal(map[string]any{
		"graph": "d2", "algorithms": []string{"UMC"}, "threshold": 0.5,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/match", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("disconnecting client got a response: status %d", resp.StatusCode)
	}

	// The handler finishes asynchronously after the client is gone; poll
	// until the 499 lands in the JSON metrics.
	var m struct {
		ClientDisconnectsTotal int64            `json:"client_disconnects_total"`
		RequestsByClassTotal   map[string]int64 `json:"requests_by_class_total"`
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &m); code != http.StatusOK {
			t.Fatalf("metrics: status %d", code)
		}
		if m.ClientDisconnectsTotal >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client_disconnects_total = %d, want >= 1", m.ClientDisconnectsTotal)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := m.RequestsByClassTotal["5xx"]; n != 0 {
		t.Fatalf("disconnect polluted the 5xx class: requests_by_class_total = %v", m.RequestsByClassTotal)
	}

	scrape := scrapeProm(t, ts.URL)
	fam := scrape.Families["ccer_client_disconnects_total"]
	if fam == nil || len(fam.Samples) == 0 || fam.Samples[0].Value < 1 {
		t.Fatalf("ccer_client_disconnects_total missing or zero in the Prometheus view: %+v", fam)
	}
}
