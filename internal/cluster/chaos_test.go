package cluster_test

// The kill-a-backend chaos harness: three real erserve processes
// (re-execs of this test binary) behind an in-process Router with
// replicas=2, under closed-loop match load. One backend is SIGKILLed
// mid-load, another SIGSTOPped, and the contract is asserted live:
//
//   - zero failed match reads while a quorum of replicas is healthy —
//     every response either succeeds byte-identical to a single-node
//     reference or is an honest shed (503 + Retry-After);
//   - writes placed on the dead backend fail over inside the caller's
//     deadline budget;
//   - the router's breaker opens for the dead backend and the cluster
//     state endpoint reports it;
//   - a restarted backend rejoins via the half-open probe without the
//     router restarting;
//   - router goroutines stay bounded through the whole storm.
//
// CLUSTER_REPORT=<path> writes a JSON artifact with the observed
// failover latency and breaker transition counts (the CI cluster job
// uploads it).

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/ccer-go/ccer/internal/cluster"
	"github.com/ccer-go/ccer/internal/graph"
	"github.com/ccer-go/ccer/internal/serve"
)

const (
	chaosChildEnv = "ERSERVE_CLUSTER_CHILD"
	chaosAddrEnv  = "ERSERVE_CLUSTER_ADDR"
)

func TestMain(m *testing.M) {
	if os.Getenv(chaosChildEnv) == "1" {
		runChaosChild()
		return
	}
	os.Exit(m.Run())
}

// runChaosChild is a re-exec'd single-node erserve. It binds the
// address given in the env (retrying briefly so a restart can reclaim
// the port of its killed predecessor), announces "ADDR <addr>" on
// stdout, and serves until killed.
func runChaosChild() {
	srv, err := serve.New(serve.Config{JobWorkers: 1, Parallelism: 1})
	if err != nil {
		fmt.Println("ERR", err)
		os.Exit(1)
	}
	want := os.Getenv(chaosAddrEnv)
	if want == "" {
		want = "127.0.0.1:0"
	}
	var ln net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", want)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			fmt.Println("ERR", err)
			os.Exit(1)
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Println("ADDR", ln.Addr().String())
	if err := http.Serve(ln, srv.Handler()); err != nil {
		fmt.Println("ERR", err)
		os.Exit(1)
	}
}

// chaosChild is one running backend process.
type chaosChild struct {
	cmd  *exec.Cmd
	addr string
}

// startChaosChild re-execs the test binary as a backend. addr pins the
// listen address ("" lets the child pick); the child's announced
// address is returned on the struct.
func startChaosChild(t *testing.T, addr string) *chaosChild {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^$")
	cmd.Env = append(os.Environ(), chaosChildEnv+"=1", chaosAddrEnv+"="+addr)
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	c := &chaosChild{cmd: cmd}
	t.Cleanup(func() {
		_ = cmd.Process.Signal(syscall.SIGCONT) // in case it died stopped
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})

	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	select {
	case line, ok := <-lines:
		if !ok || !strings.HasPrefix(line, "ADDR ") {
			t.Fatalf("chaos child did not announce an address: %q (stderr: %s)", line, errBuf.String())
		}
		c.addr = strings.TrimPrefix(line, "ADDR ")
	case <-time.After(30 * time.Second):
		t.Fatalf("chaos child never started (stderr: %s)", errBuf.String())
	}
	go func() { // keep the pipe drained
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
		}
	}()
	return c
}

func (c *chaosChild) sigkill(t *testing.T) {
	t.Helper()
	if err := c.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = c.cmd.Process.Wait()
}

func (c *chaosChild) signal(t *testing.T, sig syscall.Signal) {
	t.Helper()
	if err := c.cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
}

// clusterState fetches GET /v1/cluster from the router.
type clusterStateJSON struct {
	Backends []cluster.BackendState `json:"backends"`
	Healthy  int                    `json:"healthy_backends"`
}

func chaosClusterState(t *testing.T, routerBase string) clusterStateJSON {
	t.Helper()
	resp, err := http.Get(routerBase + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cs clusterStateJSON
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		t.Fatal(err)
	}
	return cs
}

func backendState(cs clusterStateJSON, base string) (cluster.BackendState, bool) {
	for _, b := range cs.Backends {
		if b.URL == base {
			return b, true
		}
	}
	return cluster.BackendState{}, false
}

// waitBackend polls the cluster endpoint until cond holds for base.
func waitBackend(t *testing.T, routerBase, base string, timeout time.Duration, cond func(cluster.BackendState) bool, what string) cluster.BackendState {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if st, ok := backendState(chaosClusterState(t, routerBase), base); ok && cond(st) {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("backend %s never became %s within %v", base, what, timeout)
	return cluster.BackendState{}
}

// chaosPost posts JSON and returns status, Retry-After presence and body.
func chaosPost(base, path string, payload []byte) (int, http.Header, []byte, error) {
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body, err
}

func TestClusterChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness spawns real child processes")
	}

	// --- Topology: three real backends, replicas=2, router in-process.
	children := map[string]*chaosChild{}
	var bases []string
	for i := 0; i < 3; i++ {
		c := startChaosChild(t, "")
		base := "http://" + c.addr
		children[base] = c
		bases = append(bases, base)
	}
	goroutinesBefore := runtime.NumGoroutine()
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Backends:         bases,
		Replicas:         2,
		ProbeInterval:    25 * time.Millisecond,
		ProbeTimeout:     300 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  200 * time.Millisecond,
		HedgeAfter:       60 * time.Millisecond,
		// Repair off: this scenario proves failover semantics in
		// isolation. With repair on, the restarted (empty) victim would
		// be rebuilt from peers' edge lists — which do not carry the
		// generated ground truth, so its match responses would lack
		// metrics and honestly differ from the single-node reference.
		// TestClusterRepairConvergence covers repair, over uploads.
		RepairInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Single-node reference for byte identity: same graphs, same
	// deterministic generation, warmed so the cache flag matches.
	ref, err := serve.New(serve.Config{JobWorkers: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close(context.Background())
	refSrv := httptest.NewServer(ref.Handler())
	defer refSrv.Close()

	// --- Seed graphs through the router; mirror them on the reference.
	const graphs = 4
	names := make([]string, graphs)
	matchPayloads := make([][]byte, graphs)
	refBytes := make([][]byte, graphs)
	for i := range names {
		names[i] = fmt.Sprintf("chaos-g%d", i)
		gen := []byte(fmt.Sprintf(`{"name":%q,"dataset":"D2","seed":%d,"scale":0.012}`, names[i], 100+i))
		if code, _, body, err := chaosPost(front.URL, "/v1/graphs", gen); err != nil || code != http.StatusCreated {
			t.Fatalf("seed generate %s: code=%d err=%v body=%s", names[i], code, err, body)
		}
		if code, _, body, err := chaosPost(refSrv.URL, "/v1/graphs", gen); err != nil || code != http.StatusCreated {
			t.Fatalf("reference generate %s: code=%d err=%v body=%s", names[i], code, err, body)
		}
		matchPayloads[i] = []byte(fmt.Sprintf(`{"graph":%q,"algorithms":["UMC","RSR"],"threshold":0.5}`, names[i]))
		// Warm every hosting replica AND the reference so the responses'
		// cache flag agrees from here on; then pin the reference bytes.
		for _, replica := range cluster.Replicas(names[i], bases, 2) {
			if code, _, body, err := chaosPost(replica, "/v1/match", matchPayloads[i]); err != nil || code != http.StatusOK {
				t.Fatalf("warming %s on %s: code=%d err=%v body=%s", names[i], replica, code, err, body)
			}
		}
		if code, _, _, err := chaosPost(refSrv.URL, "/v1/match", matchPayloads[i]); err != nil || code != http.StatusOK {
			t.Fatalf("warming reference %s: code=%d err=%v", names[i], code, err)
		}
		code, _, body, err := chaosPost(refSrv.URL, "/v1/match", matchPayloads[i])
		if err != nil || code != http.StatusOK {
			t.Fatalf("reference match %s: code=%d err=%v", names[i], code, err)
		}
		refBytes[i] = body
	}

	// --- Closed-loop load. A read "fails" unless it is a 200 with bytes
	// identical to the reference, or an honest shed (503 + Retry-After).
	var served, shed, failed atomic.Int64
	var failOnce sync.Once
	var firstFailure string // workers must not touch t; asserted after wg.Wait
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				g := (w + i) % graphs
				code, hdr, body, err := chaosPost(front.URL, "/v1/match", matchPayloads[g])
				switch {
				case err != nil:
					failed.Add(1)
					failOnce.Do(func() { firstFailure = fmt.Sprintf("read transport error under chaos: %v", err) })
				case code == http.StatusOK:
					if !bytes.Equal(body, refBytes[g]) {
						failed.Add(1)
						failOnce.Do(func() {
							firstFailure = fmt.Sprintf("read diverged from single-node reference for %s:\n got %s\nwant %s", names[g], body, refBytes[g])
						})
					} else {
						served.Add(1)
					}
				case code == http.StatusServiceUnavailable && hdr.Get("Retry-After") != "":
					shed.Add(1) // honest shed: not a failure
				default:
					failed.Add(1)
					failOnce.Do(func() { firstFailure = fmt.Sprintf("read failed under chaos: code=%d body=%s", code, body) })
				}
			}
		}(w)
	}
	time.Sleep(250 * time.Millisecond) // steady state before the first fault

	// --- Fault 1: SIGKILL the owner of chaos-g0 mid-load.
	victim := cluster.Replicas(names[0], bases, 2)[0]
	children[victim].sigkill(t)
	killedAt := time.Now()

	// Writes placed on the dead backend must fail over within the
	// caller's deadline budget: pick a name whose replica set contains
	// the victim.
	failName := ""
	for i := 0; failName == ""; i++ {
		n := fmt.Sprintf("chaos-failover-%d", i)
		for _, r := range cluster.Replicas(n, bases, 2) {
			if r == victim {
				failName = n
			}
		}
	}
	gen := []byte(fmt.Sprintf(`{"name":%q,"dataset":"D2","seed":777,"scale":0.012}`, failName))
	writeDeadline := time.Now().Add(5 * time.Second)
	var failoverLatency time.Duration
	for {
		code, _, body, err := chaosPost(front.URL, "/v1/graphs", gen)
		if err == nil && code == http.StatusCreated {
			failoverLatency = time.Since(killedAt)
			break
		}
		if time.Now().After(writeDeadline) {
			t.Fatalf("write targeting dead backend's replica set never failed over: code=%d err=%v body=%s", code, err, body)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// The breaker must open and the cluster endpoint must say so.
	deadState := waitBackend(t, front.URL, victim, 5*time.Second,
		func(st cluster.BackendState) bool { return !st.Ready && st.Opens >= 1 },
		"dead with an open breaker")
	breakerOpenLatency := time.Since(killedAt)
	if cs := chaosClusterState(t, front.URL); cs.Healthy != 2 {
		t.Fatalf("healthy_backends = %d with one backend SIGKILLed, want 2", cs.Healthy)
	}

	// Keep reading through the one-dead window.
	time.Sleep(400 * time.Millisecond)

	// --- Fault 2: SIGSTOP a surviving backend. Its probes time out, it
	// leaves rotation, and hedged reads mask any request already stuck
	// on it. Quorum note: the stopped backend still shares no replica
	// set with the dead one for every graph (replicas=2 of 3), so some
	// graphs now have a single live replica — reads must still succeed.
	var stopped string
	for _, b := range bases {
		if b != victim {
			stopped = b
			break
		}
	}
	children[stopped].signal(t, syscall.SIGSTOP)
	waitBackend(t, front.URL, stopped, 5*time.Second,
		func(st cluster.BackendState) bool { return !st.Ready },
		"not-ready while SIGSTOPped")
	time.Sleep(400 * time.Millisecond) // reads continue against the last healthy replica
	children[stopped].signal(t, syscall.SIGCONT)
	waitBackend(t, front.URL, stopped, 10*time.Second,
		func(st cluster.BackendState) bool { return st.Ready },
		"ready again after SIGCONT")

	// --- Recovery: restart the killed backend on its old address. The
	// router must take it back through the half-open probe without being
	// restarted itself.
	restartAt := time.Now()
	children[victim] = startChaosChild(t, strings.TrimPrefix(victim, "http://"))
	rejoined := waitBackend(t, front.URL, victim, 10*time.Second,
		func(st cluster.BackendState) bool { return st.Ready && st.Breaker == "closed" && st.HalfOpens >= 1 },
		"rejoined through a half-open probe")
	rejoinLatency := time.Since(restartAt)

	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d failed match reads under chaos (served=%d shed=%d), first: %s",
			failed.Load(), served.Load(), shed.Load(), firstFailure)
	}
	if served.Load() < 50 {
		t.Fatalf("only %d reads served under chaos; the load loop barely ran (shed=%d)", served.Load(), shed.Load())
	}
	if cs := chaosClusterState(t, front.URL); cs.Healthy != 3 {
		t.Fatalf("healthy_backends = %d after full recovery, want 3", cs.Healthy)
	}

	// --- Goroutines bounded: hedges were cancelled, probes are the only
	// long-lived router goroutines. Allow transport keep-alive slack.
	deadline := time.Now().Add(10 * time.Second)
	var goroutinesAfter int
	for {
		runtime.GC() // nudges idle conn readLoops parked on finalizers
		goroutinesAfter = runtime.NumGoroutine()
		if goroutinesAfter <= goroutinesBefore+40 || time.Now().After(deadline) {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if goroutinesAfter > goroutinesBefore+40 {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines grew %d -> %d under chaos:\n%s",
			goroutinesBefore, goroutinesAfter, buf[:runtime.Stack(buf, true)])
	}

	t.Logf("chaos: served=%d shed=%d failover=%v breaker-open=%v rejoin=%v goroutines %d->%d",
		served.Load(), shed.Load(), failoverLatency, breakerOpenLatency, rejoinLatency,
		goroutinesBefore, goroutinesAfter)

	if path := os.Getenv("CLUSTER_REPORT"); path != "" {
		report := map[string]any{
			"served_reads":          served.Load(),
			"shed_reads":            shed.Load(),
			"failed_reads":          failed.Load(),
			"write_failover_ms":     failoverLatency.Milliseconds(),
			"breaker_open_ms":       breakerOpenLatency.Milliseconds(),
			"rejoin_ms":             rejoinLatency.Milliseconds(),
			"victim_breaker_opens":  deadState.Opens,
			"victim_half_opens":     rejoined.HalfOpens,
			"victim_breaker_closes": rejoined.Closes,
			"goroutines_before":     goroutinesBefore,
			"goroutines_after":      goroutinesAfter,
		}
		raw, _ := json.MarshalIndent(report, "", "  ")
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Logf("writing cluster report: %v", err)
		}
	}
}

// chaosGet fetches a URL, returning status and body.
func chaosGet(url string) (int, []byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// chaosSyncView pulls a backend's ?fields=sync listing keyed by name.
// The error is returned (not fataled) so pollers can ride out a
// backend that is mid-restart.
func chaosSyncView(base string) (map[string]string, error) {
	code, body, err := chaosGet(base + "/v1/graphs?fields=sync")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("sync listing: status %d", code)
	}
	var listing struct {
		Graphs []struct {
			Name     string `json:"name"`
			Checksum string `json:"checksum"`
		} `json:"graphs"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		return nil, err
	}
	view := make(map[string]string, len(listing.Graphs))
	for _, g := range listing.Graphs {
		view[g.Name] = g.Checksum
	}
	return view, nil
}

// chaosUpload stores a deterministic 4x4 graph under name via base,
// returning its listing checksum. Uploads (not generation) on purpose:
// the edge-list codec is also repair's wire format and carries no
// ground truth, so original and repaired copies serve byte-identical
// matches — the property the closed-loop readers assert.
func chaosUpload(t *testing.T, base, name string, seed int64) string {
	t.Helper()
	b := graph.NewBuilder(4, 4)
	for i := int32(0); i < 4; i++ {
		b.Add(i, (i+int32(seed))%4, 0.5+float64(i)/10)
	}
	g := b.MustBuild()
	var wire bytes.Buffer
	if err := g.WriteEdgeList(&wire); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/graphs?name="+name, "text/plain", &wire)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload %s via %s: status %d", name, base, resp.StatusCode)
	}
	return fmt.Sprintf("%016x", g.Checksum())
}

// matchReference pins the two legitimate response byte-strings for a
// match: the cold (first-serve, cache miss) and warm (cached) variants.
// Any replica — original, failed-over-to, or freshly repaired — must
// serve one of the two, byte-identical; the cache flag is the only
// honest difference between a warmed survivor and a just-repaired copy.
type matchReference struct {
	payload []byte
	cold    []byte
	warm    []byte
}

func newMatchReference(t *testing.T, refBase, name string) *matchReference {
	t.Helper()
	mr := &matchReference{
		payload: []byte(fmt.Sprintf(`{"graph":%q,"algorithms":["UMC"],"threshold":0.5}`, name)),
	}
	for _, variant := range []*[]byte{&mr.cold, &mr.warm} {
		code, _, body, err := chaosPost(refBase, "/v1/match", mr.payload)
		if err != nil || code != http.StatusOK {
			t.Fatalf("reference match %s: code=%d err=%v", name, code, err)
		}
		*variant = body
	}
	if bytes.Equal(mr.cold, mr.warm) {
		t.Fatalf("reference cold and warm match bytes for %s are identical; the cache flag is not being exercised", name)
	}
	return mr
}

func (mr *matchReference) accepts(body []byte) bool {
	return bytes.Equal(body, mr.cold) || bytes.Equal(body, mr.warm)
}

// repairLoadLoop runs closed-loop match readers over refs until stop is
// closed. A read fails unless it is byte-identical to a reference
// variant or an honest shed.
func repairLoadLoop(front string, refs []*matchReference, stop chan struct{}, wg *sync.WaitGroup, served, shed, failed *atomic.Int64, failOnce *sync.Once, firstFailure *string) {
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ref := refs[(w+i)%len(refs)]
				code, hdr, body, err := chaosPost(front, "/v1/match", ref.payload)
				switch {
				case err != nil:
					failed.Add(1)
					failOnce.Do(func() { *firstFailure = fmt.Sprintf("read transport error: %v", err) })
				case code == http.StatusOK && ref.accepts(body):
					served.Add(1)
				case code == http.StatusServiceUnavailable && hdr.Get("Retry-After") != "":
					shed.Add(1)
				default:
					failed.Add(1)
					failOnce.Do(func() { *firstFailure = fmt.Sprintf("read failed: code=%d body=%s", code, body) })
				}
			}
		}(w)
	}
}

// TestClusterRepairConvergence is the anti-entropy proof against real
// processes: SIGKILL a backend, fan writes past it, restart it empty,
// and require checksum convergence within ONE repair interval of the
// rejoin under closed-loop read load — zero failed reads, every
// response byte-identical to a single-node reference (modulo the honest
// cache-warmth flag), repair_graphs_repaired_total > 0 and the
// divergence gauge drained. REPAIR_REPORT=<path> writes the JSON
// artifact CI uploads.
func TestClusterRepairConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness spawns real child processes")
	}
	const repairInterval = 2 * time.Second

	children := map[string]*chaosChild{}
	var bases []string
	for i := 0; i < 3; i++ {
		c := startChaosChild(t, "")
		base := "http://" + c.addr
		children[base] = c
		bases = append(bases, base)
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Backends:          bases,
		Replicas:          2,
		ProbeInterval:     25 * time.Millisecond,
		ProbeTimeout:      300 * time.Millisecond,
		BreakerThreshold:  3,
		BreakerCooldown:   200 * time.Millisecond,
		HedgeAfter:        60 * time.Millisecond,
		RepairInterval:    repairInterval,
		RepairConcurrency: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	ref, err := serve.New(serve.Config{JobWorkers: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close(context.Background())
	refSrv := httptest.NewServer(ref.Handler())
	defer refSrv.Close()

	// --- Seed via the router, mirror on the reference.
	const graphs = 4
	checksums := map[string]string{}
	var refs []*matchReference
	names := make([]string, graphs)
	for i := range names {
		names[i] = fmt.Sprintf("repair-g%d", i)
		checksums[names[i]] = chaosUpload(t, front.URL, names[i], int64(i))
		chaosUpload(t, refSrv.URL, names[i], int64(i))
		refs = append(refs, newMatchReference(t, refSrv.URL, names[i]))
	}

	var served, shed, failed atomic.Int64
	var failOnce sync.Once
	var firstFailure string
	stop := make(chan struct{})
	var wg sync.WaitGroup
	repairLoadLoop(front.URL, refs, stop, &wg, &served, &shed, &failed, &failOnce, &firstFailure)
	time.Sleep(200 * time.Millisecond)

	// --- Kill the owner of repair-g0, then fan writes past the corpse:
	// the surviving replica applies them, the router counts fan misses,
	// and the victim is now guaranteed stale on restart.
	victim := cluster.Replicas(names[0], bases, 2)[0]
	children[victim].sigkill(t)
	missed := 0
	for i := 0; missed < 2; i++ {
		n := fmt.Sprintf("repair-miss-%d", i)
		hosted := false
		for _, r := range cluster.Replicas(n, bases, 2) {
			if r == victim {
				hosted = true
			}
		}
		if !hosted {
			continue
		}
		checksums[n] = chaosUpload(t, front.URL, n, int64(100+i))
		chaosUpload(t, refSrv.URL, n, int64(100+i))
		names = append(names, n)
		missed++
	}
	waitBackend(t, front.URL, victim, 5*time.Second,
		func(st cluster.BackendState) bool { return !st.Ready },
		"marked down after SIGKILL")

	// --- Restart empty on the old address; repair-on-rejoin must
	// rebuild it within one repair interval of the router seeing it.
	children[victim] = startChaosChild(t, strings.TrimPrefix(victim, "http://"))
	waitBackend(t, front.URL, victim, 10*time.Second,
		func(st cluster.BackendState) bool { return st.Ready },
		"ready again after restart")
	rejoinedAt := time.Now()

	wantOnVictim := map[string]string{}
	for n, sum := range checksums {
		for _, r := range cluster.Replicas(n, bases, 2) {
			if r == victim {
				wantOnVictim[n] = sum
			}
		}
	}
	if len(wantOnVictim) < 3 { // repair-g0 + the two fanned-past writes at minimum
		t.Fatalf("victim only places %d graphs; the scenario lost its teeth", len(wantOnVictim))
	}
	var convergeIn time.Duration
	for {
		view, err := chaosSyncView(victim)
		if err == nil {
			converged := true
			for n, sum := range wantOnVictim {
				if view[n] != sum {
					converged = false
					break
				}
			}
			if converged {
				convergeIn = time.Since(rejoinedAt)
				break
			}
		}
		if time.Since(rejoinedAt) > repairInterval {
			t.Fatalf("restarted replica not checksum-converged within one repair interval (%v); view=%v want=%v err=%v",
				repairInterval, func() any { v, _ := chaosSyncView(victim); return v }(), wantOnVictim, err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The repair block on /v1/cluster must account for the rebuild.
	type clusterView struct {
		Backends []cluster.BackendState `json:"backends"`
		Repair   struct {
			Scans          int64          `json:"scans_total"`
			GraphsRepaired int64          `json:"graphs_repaired_total"`
			Bytes          int64          `json:"bytes_total"`
			Failures       int64          `json:"failures_total"`
			Diverged       map[string]int `json:"diverged"`
		} `json:"repair"`
	}
	var cs clusterView
	startScans := int64(-1)
	deadline := time.Now().Add(5 * time.Second)
	for {
		// Each poll decodes into a fresh value: json.Unmarshal keeps the
		// keys already in a map it decodes into, so a reused Diverged
		// would list every graph an earlier poll saw diverged.
		cs = clusterView{}
		code, body, err := chaosGet(front.URL + "/v1/cluster")
		if err != nil || code != http.StatusOK || json.Unmarshal(body, &cs) != nil {
			t.Fatalf("cluster state: code=%d err=%v", code, err)
		}
		if startScans < 0 {
			startScans = cs.Repair.Scans
		}
		if cs.Repair.GraphsRepaired >= int64(len(wantOnVictim)) && len(cs.Repair.Diverged) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("repair accounting never settled: scans_total %d at the start of the wait, %d at the end; failures_total %d; repair %+v; backends %+v",
				startScans, cs.Repair.Scans, cs.Repair.Failures, cs.Repair, cs.Backends)
		}
		time.Sleep(20 * time.Millisecond)
	}

	time.Sleep(200 * time.Millisecond) // post-convergence reads, some served by the repaired copy
	close(stop)
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d failed reads across kill+repair (served=%d shed=%d), first: %s",
			failed.Load(), served.Load(), shed.Load(), firstFailure)
	}
	if served.Load() < 50 {
		t.Fatalf("only %d reads served; the load loop barely ran (shed=%d)", served.Load(), shed.Load())
	}
	t.Logf("repair chaos: converged in %v (budget %v), repaired=%d bytes=%d scans=%d served=%d shed=%d",
		convergeIn, repairInterval, cs.Repair.GraphsRepaired, cs.Repair.Bytes, cs.Repair.Scans, served.Load(), shed.Load())

	if path := os.Getenv("REPAIR_REPORT"); path != "" {
		report := map[string]any{
			"converge_ms":           convergeIn.Milliseconds(),
			"repair_interval_ms":    repairInterval.Milliseconds(),
			"graphs_repaired_total": cs.Repair.GraphsRepaired,
			"repair_bytes_total":    cs.Repair.Bytes,
			"repair_scans_total":    cs.Repair.Scans,
			"served_reads":          served.Load(),
			"shed_reads":            shed.Load(),
			"failed_reads":          failed.Load(),
		}
		raw, _ := json.MarshalIndent(report, "", "  ")
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Logf("writing repair report: %v", err)
		}
	}
}

// TestClusterElasticity removes and re-adds a live backend through the
// admin endpoint while closed-loop readers run, asserting only the
// names whose rendezvous replica set changed actually migrated and
// that reads stay correct throughout.
func TestClusterElasticity(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness spawns real child processes")
	}

	children := map[string]*chaosChild{}
	var bases []string
	for i := 0; i < 3; i++ {
		c := startChaosChild(t, "")
		base := "http://" + c.addr
		children[base] = c
		bases = append(bases, base)
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Backends:         bases,
		Replicas:         2,
		ProbeInterval:    25 * time.Millisecond,
		ProbeTimeout:     300 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  200 * time.Millisecond,
		HedgeAfter:       60 * time.Millisecond,
		RepairInterval:   500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	ref, err := serve.New(serve.Config{JobWorkers: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close(context.Background())
	refSrv := httptest.NewServer(ref.Handler())
	defer refSrv.Close()

	const graphs = 6
	checksums := map[string]string{}
	var refs []*matchReference
	names := make([]string, graphs)
	for i := range names {
		names[i] = fmt.Sprintf("elastic-g%d", i)
		checksums[names[i]] = chaosUpload(t, front.URL, names[i], int64(i))
		chaosUpload(t, refSrv.URL, names[i], int64(i))
		refs = append(refs, newMatchReference(t, refSrv.URL, names[i]))
	}

	var served, shed, failed atomic.Int64
	var failOnce sync.Once
	var firstFailure string
	stop := make(chan struct{})
	var wg sync.WaitGroup
	repairLoadLoop(front.URL, refs, stop, &wg, &served, &shed, &failed, &failOnce, &firstFailure)
	time.Sleep(150 * time.Millisecond)

	mustSyncView := func(base string) map[string]string {
		view, err := chaosSyncView(base)
		if err != nil {
			t.Fatalf("sync view of %s: %v", base, err)
		}
		return view
	}
	before := map[string]map[string]string{}
	for _, base := range bases {
		before[base] = mustSyncView(base)
	}

	// --- Remove a live backend. Exactly the names it hosted must gain a
	// replacement replica; every other backend keeps exactly its
	// pre-removal holdings plus those backfills.
	victim := bases[0]
	req, err := http.NewRequest(http.MethodDelete, front.URL+"/v1/cluster/backends?url="+victim, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("backend remove: status %d", resp.StatusCode)
	}
	displaced := map[string]bool{}
	for _, n := range names {
		for _, r := range cluster.Replicas(n, bases, 2) {
			if r == victim {
				displaced[n] = true
			}
		}
	}
	survivors := bases[1:]
	deadline := time.Now().Add(10 * time.Second)
	for {
		settled := true
		for _, n := range names {
			for _, base := range cluster.Replicas(n, survivors, 2) {
				if view := mustSyncView(base); view[n] != checksums[n] {
					settled = false
				}
			}
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shrunk placements never re-replicated")
		}
		time.Sleep(25 * time.Millisecond)
	}
	for _, base := range survivors {
		now := mustSyncView(base)
		for n := range now {
			if _, held := before[base][n]; !held && !displaced[n] {
				t.Fatalf("backend %s gained %q, which never counted the removed backend as a replica", base, n)
			}
		}
		for n := range before[base] {
			if _, still := now[n]; !still {
				t.Fatalf("backend %s lost %q on an unrelated membership change", base, n)
			}
		}
	}

	// --- Re-add the same (still running, never wiped) backend. Its
	// placements revert; it already holds every one of its names, so
	// convergence means "nothing needed streaming back": its listing is
	// unchanged and the divergence gauge drains.
	if code, _, body, err := chaosPost(front.URL, "/v1/cluster/backends", []byte(fmt.Sprintf(`{"url":%q}`, victim))); err != nil || code != http.StatusOK {
		t.Fatalf("backend re-add: code=%d err=%v body=%s", code, err, body)
	}
	waitBackend(t, front.URL, victim, 5*time.Second,
		func(st cluster.BackendState) bool { return st.Ready },
		"ready after re-add")
	deadline = time.Now().Add(10 * time.Second)
	for {
		var cs struct {
			Repair struct {
				Diverged map[string]int `json:"diverged"`
				Scans    int64          `json:"scans_total"`
			} `json:"repair"`
		}
		code, body, err := chaosGet(front.URL + "/v1/cluster")
		if err != nil || code != http.StatusOK || json.Unmarshal(body, &cs) != nil {
			t.Fatalf("cluster state: code=%d err=%v", code, err)
		}
		if cs.Repair.Scans >= 1 && len(cs.Repair.Diverged) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("divergence gauge never drained after re-add: %+v", cs.Repair)
		}
		time.Sleep(25 * time.Millisecond)
	}
	after := mustSyncView(victim)
	if len(after) != len(before[victim]) {
		t.Fatalf("re-added backend's holdings changed: %v -> %v (nothing should have streamed)", before[victim], after)
	}
	for n, sum := range before[victim] {
		if after[n] != sum {
			t.Fatalf("re-added backend's copy of %q changed: %s -> %s", n, sum, after[n])
		}
	}

	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d failed reads across remove+re-add (served=%d shed=%d), first: %s",
			failed.Load(), served.Load(), shed.Load(), firstFailure)
	}
	if served.Load() < 50 {
		t.Fatalf("only %d reads served; the load loop barely ran (shed=%d)", served.Load(), shed.Load())
	}
	t.Logf("elasticity chaos: displaced=%d of %d names, served=%d shed=%d", len(displaced), graphs, served.Load(), shed.Load())
}
