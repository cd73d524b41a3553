package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/ccer-go/ccer/internal/obs/promtest"
)

// runWithArgs invokes run() with the given argv. run() builds its own
// FlagSet, so concurrent instances (router-mode tests start three) are
// safe.
func runWithArgs(args ...string) error {
	return run(args)
}

// freeAddr reserves and releases a loopback port. The tiny window
// between release and reuse is acceptable for a test.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// waitHealthy blocks until /readyz answers 200. /healthz is not enough
// any more: the listener opens with the boot handler installed (alive
// but not ready) before recovery finishes, so only readiness proves the
// real service handler is in place.
func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("server never became ready")
}

// TestErserveServesAndShutsDownOnSIGINT drives the full binary surface:
// start, generate a graph, match on it, then SIGINT and a clean exit.
func TestErserveServesAndShutsDownOnSIGINT(t *testing.T) {
	addr := freeAddr(t)
	base := "http://" + addr
	done := make(chan error, 1)
	go func() { done <- runWithArgs("-addr", addr) }()
	waitHealthy(t, base)

	body, _ := json.Marshal(map[string]any{"name": "d2", "dataset": "D2", "seed": 42, "scale": 0.02})
	resp, err := http.Post(base+"/v1/graphs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("generate: status %d", resp.StatusCode)
	}

	body, _ = json.Marshal(map[string]any{"graph": "d2", "algorithms": []string{"UMC"}, "threshold": 0.5})
	resp, err = http.Post(base+"/v1/match", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var mr struct {
		Results []struct {
			Pairs []struct{ U, V int32 } `json:"pairs"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(mr.Results) != 1 || len(mr.Results[0].Pairs) == 0 {
		t.Fatalf("match response = %+v", mr)
	}

	// Park a heavy sweep so shutdown exercises in-flight cancellation.
	body, _ = json.Marshal(map[string]any{"graph": "d2", "repeats": 200})
	resp, err = http.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep: status %d", resp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run() after SIGINT: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down after SIGINT")
	}
}

// TestErservePrometheusScrapeLive is the CI exposition check against
// the live binary: start erserve, put a generate + match workload
// through it, scrape the Prometheus view twice, and require every line
// to parse, no duplicate families or series, cumulative buckets, and
// counters that never move backwards between the scrapes.
func TestErservePrometheusScrapeLive(t *testing.T) {
	addr := freeAddr(t)
	base := "http://" + addr
	done := make(chan error, 1)
	go func() { done <- runWithArgs("-addr", addr, "-trace-ring", "16") }()
	waitHealthy(t, base)

	post := func(path string, payload map[string]any) {
		t.Helper()
		body, _ := json.Marshal(payload)
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode >= 400 {
			t.Fatalf("POST %s: status %d", path, resp.StatusCode)
		}
	}
	scrape := func() *promtest.Scrape {
		t.Helper()
		resp, err := http.Get(base + "/metrics?format=prometheus")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		s, err := promtest.Parse(string(raw))
		if err != nil {
			t.Fatalf("live exposition does not parse: %v", err)
		}
		return s
	}

	post("/v1/graphs", map[string]any{"name": "d2", "dataset": "D2", "seed": 42, "scale": 0.02})
	post("/v1/match", map[string]any{"graph": "d2", "algorithms": []string{"UMC", "CNC"}, "threshold": 0.5})
	first := scrape()
	for _, fam := range []string{
		"ccer_requests_total", "ccer_http_request_seconds",
		"ccer_match_seconds", "ccer_generate_seconds",
	} {
		if first.Families[fam] == nil {
			t.Errorf("live exposition misses %s", fam)
		}
	}
	post("/v1/match", map[string]any{"graph": "d2", "algorithms": []string{"RSR"}, "threshold": 0.5})
	if err := promtest.CheckMonotonic(first, scrape()); err != nil {
		t.Fatal(err)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run() after SIGINT: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down after SIGINT")
	}
}

// TestErserveSIGTERMDrainsUnderLoad: a SIGTERM arriving while closed-
// loop clients hammer /v1/match must still drain cleanly — run()
// returns nil within the drain window, every shed response carries
// Retry-After, and at least one request was actually served.
func TestErserveSIGTERMDrainsUnderLoad(t *testing.T) {
	addr := freeAddr(t)
	base := "http://" + addr
	done := make(chan error, 1)
	go func() {
		done <- runWithArgs("-addr", addr, "-admission-slots", "2",
			"-admission-depth", "4", "-admission-budget", "50ms", "-cache", "-1")
	}()
	waitHealthy(t, base)

	body, _ := json.Marshal(map[string]any{"name": "d2", "dataset": "D2", "seed": 42, "scale": 0.02})
	resp, err := http.Post(base+"/v1/graphs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("generate: status %d", resp.StatusCode)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var served, shed atomic.Int64
	payload, _ := json.Marshal(map[string]any{"graph": "d2", "algorithms": []string{"UMC"}, "threshold": 0.5})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(base+"/v1/match", "application/json", bytes.NewReader(payload))
				if err != nil {
					return // listener is gone; shutdown won the race
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					served.Add(1)
				case http.StatusServiceUnavailable:
					if resp.Header.Get("Retry-After") == "" {
						t.Error("503 without Retry-After header")
					}
					shed.Add(1)
				}
			}
		}()
	}
	// Let the stampede build, then pull the plug mid-flight.
	time.Sleep(300 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run() after SIGTERM under load: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not drain under load")
	}
	close(stop)
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("no request was served before shutdown")
	}
	t.Logf("drained under load: served=%d shed=%d", served.Load(), shed.Load())
}

func TestErserveErrors(t *testing.T) {
	if err := runWithArgs("unexpected-arg"); err == nil || !strings.Contains(err.Error(), "unexpected") {
		t.Fatalf("positional arg accepted: %v", err)
	}
	if err := runWithArgs("-addr", "256.256.256.256:99999"); err == nil {
		t.Fatal("unlistenable address accepted")
	}
}

// TestBootHandler pins the pre-recovery surface: alive on /healthz,
// 503 + Retry-After + reason "starting" everywhere else, so health
// checkers keep a recovering node out of rotation without declaring it
// dead.
func TestBootHandler(t *testing.T) {
	h := bootHandler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("boot /healthz = %d, want 200 (alive)", rec.Code)
	}
	for _, path := range []string{"/readyz", "/v1/match", "/v1/graphs"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("boot %s = %d, want 503", path, rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("boot %s 503 without Retry-After", path)
		}
		var body struct {
			Reason string `json:"reason"`
			Ready  bool   `json:"ready"`
		}
		if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
			t.Fatalf("boot %s body: %v", path, err)
		}
		if body.Reason != "starting" || body.Ready {
			t.Fatalf("boot %s body = %+v, want reason=starting ready=false", path, body)
		}
	}
}

// TestErserveRouterMode drives the full binary surface in cluster
// formation: two backend erserve processes-worth of run() plus a router
// run() fronting them, a write and a read through the router, the
// cluster state endpoint, the router's -pprof routes, and a clean SIGINT
// teardown of all three.
func TestErserveRouterMode(t *testing.T) {
	b1, b2, front := freeAddr(t), freeAddr(t), freeAddr(t)
	done := make(chan error, 3)
	go func() { done <- runWithArgs("-addr", b1) }()
	waitHealthy(t, "http://"+b1)
	go func() { done <- runWithArgs("-addr", b2) }()
	waitHealthy(t, "http://"+b2)
	go func() {
		done <- runWithArgs("-addr", front,
			"-route", "http://"+b1+",http://"+b2,
			"-replicas", "2", "-probe-interval", "50ms", "-pprof")
	}()
	base := "http://" + front
	waitHealthy(t, base)

	body, _ := json.Marshal(map[string]any{"name": "d2", "dataset": "D2", "seed": 42, "scale": 0.02})
	resp, err := http.Post(base+"/v1/graphs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("generate via router: status %d", resp.StatusCode)
	}

	body, _ = json.Marshal(map[string]any{"graph": "d2", "algorithms": []string{"UMC"}, "threshold": 0.5})
	resp, err = http.Post(base+"/v1/match", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var mr struct {
		Results []struct {
			Pairs []struct{ U, V int32 } `json:"pairs"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(mr.Results) != 1 || len(mr.Results[0].Pairs) == 0 {
		t.Fatalf("match via router = %+v", mr)
	}

	resp, err = http.Get(base + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var cs struct {
		Backends []struct {
			URL     string `json:"url"`
			Ready   bool   `json:"ready"`
			Breaker string `json:"breaker"`
		} `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(cs.Backends) != 2 {
		t.Fatalf("cluster state lists %d backends, want 2", len(cs.Backends))
	}
	for _, b := range cs.Backends {
		if !b.Ready || b.Breaker != "closed" {
			t.Fatalf("backend %s not healthy in steady state: %+v", b.URL, cs)
		}
	}

	resp, err = http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router -pprof: /debug/pprof/cmdline status %d, want 200", resp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("a run() instance failed after SIGINT: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("cluster did not shut down after SIGINT")
		}
	}
}

// TestErserveAddrInUse covers the listen-before-serve fast failure.
func TestErserveAddrInUse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := runWithArgs("-addr", ln.Addr().String()); err == nil {
		t.Fatal("in-use address accepted")
	} else if !strings.Contains(fmt.Sprint(err), "address already in use") {
		t.Logf("got err %v (platform-specific message, accepted)", err)
	}
}
