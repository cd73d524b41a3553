package crashtest_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"github.com/ccer-go/ccer/internal/graph"
	"github.com/ccer-go/ccer/internal/serve"
)

// The kill -9 harness re-execs this test binary as a child that runs a
// real erserve service (serve.New over OSFS) on a data directory, then
// SIGKILLs it at randomized points while generation requests are in
// flight, restarts it, and checks the recovered store against what the
// child acknowledged before dying: acked graphs are back byte-identically
// (checksum and version), and nothing is recovered that was never sent.

const (
	childEnv = "ERSERVE_CRASH_CHILD"
	dirEnv   = "ERSERVE_CRASH_DIR"
)

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		runChild()
		return
	}
	os.Exit(m.Run())
}

// runChild is the re-exec'd server process: it mounts the data dir,
// prints the listen address on stdout, and serves until killed.
func runChild() {
	srv, err := serve.New(serve.Config{
		DataDir:     os.Getenv(dirEnv),
		JobWorkers:  1,
		Parallelism: 1,
		// An aggressive compaction period so SIGKILL lands inside
		// manifest rewrites and journal rolls too, not only appends.
		CompactEvery: 25 * time.Millisecond,
	})
	if err != nil {
		fmt.Println("ERR", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Println("ERR", err)
		os.Exit(1)
	}
	fmt.Println("ADDR", ln.Addr().String())
	if err := http.Serve(ln, srv.Handler()); err != nil {
		fmt.Println("ERR", err)
		os.Exit(1)
	}
}

// child is one running server process.
type child struct {
	cmd    *exec.Cmd
	addr   string
	stderr *bytes.Buffer
}

func startChild(t *testing.T, dir string) *child {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	// -test.run=^$ keeps the child from recursing into the tests if the
	// env guard were ever lost.
	cmd := exec.Command(exe, "-test.run=^$")
	cmd.Env = append(os.Environ(), childEnv+"=1", dirEnv+"="+dir)
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	c := &child{cmd: cmd, stderr: &errBuf}
	t.Cleanup(func() { _ = cmd.Process.Kill(); _, _ = cmd.Process.Wait() })

	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
			return
		}
		close(lines)
	}()
	select {
	case line, ok := <-lines:
		if !ok || !strings.HasPrefix(line, "ADDR ") {
			t.Fatalf("child did not announce an address: %q (stderr: %s)", line, errBuf.String())
		}
		c.addr = strings.TrimPrefix(line, "ADDR ")
	case <-time.After(30 * time.Second):
		t.Fatalf("child never started (stderr: %s)", errBuf.String())
	}
	// Drain the rest of stdout so the child never blocks on a full pipe.
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
		}
	}()
	return c
}

func (c *child) kill(t *testing.T) {
	t.Helper()
	if err := c.cmd.Process.Kill(); err != nil { // SIGKILL: no shutdown path runs
		t.Fatal(err)
	}
	_ = c.cmd.Wait() // an error is expected: the child was killed
}

// ackedGraph is one acknowledged commit: the child's 201 response bound
// this name to this exact content (checksum) at this version.
type ackedGraph struct {
	Version  int64
	Checksum string
}

type infoJSON struct {
	Name     string `json:"name"`
	Version  int64  `json:"version"`
	Checksum string `json:"checksum"`
}

func listGraphs(t *testing.T, addr string) map[string]infoJSON {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/v1/graphs")
	if err != nil {
		t.Fatalf("list graphs: %v", err)
	}
	defer resp.Body.Close()
	var parsed struct {
		Graphs []infoJSON `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&parsed); err != nil {
		t.Fatal(err)
	}
	out := map[string]infoJSON{}
	for _, g := range parsed.Graphs {
		out[g.Name] = g
	}
	return out
}

func metricsOf(t *testing.T, addr string) map[string]json.Number {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]json.Number{}
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	var raw map[string]any
	if err := dec.Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for k, v := range raw {
		if n, ok := v.(json.Number); ok {
			out[k] = n
		}
	}
	return out
}

// verifyAgainstAcked asserts the durability contract on a freshly
// restarted child: every acknowledged graph is present, byte-identical
// (same checksum) at the same version; every present graph corresponds
// to a request this test actually sent (nothing invented); in-flight
// unacknowledged mutations are never partially visible.
func verifyAgainstAcked(t *testing.T, addr string, acked map[string]ackedGraph, attempted func(string) bool) {
	t.Helper()
	got := listGraphs(t, addr)
	for name, want := range acked {
		g, ok := got[name]
		if !ok {
			t.Fatalf("acked graph %q lost across kill -9", name)
		}
		if g.Checksum != want.Checksum || g.Version != want.Version {
			t.Fatalf("graph %q recovered as v%d/%s, acked v%d/%s",
				name, g.Version, g.Checksum, want.Version, want.Checksum)
		}
	}
	for name := range got {
		if !attempted(name) {
			t.Fatalf("recovered graph %q was never requested", name)
		}
	}
}

func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	// Post-mortem hook: point CRASHTEST_DIR at a directory to keep the
	// store's on-disk state after a failure instead of losing it with
	// the TempDir (the manifest-reuse bug was diagnosed from one).
	if d := os.Getenv("CRASHTEST_DIR"); d != "" {
		dir = d
	}
	rng := rand.New(rand.NewSource(0x5EED))
	iterations := 25
	if testing.Short() {
		iterations = 8
	}

	acked := map[string]ackedGraph{}
	var counter int
	attempted := func(name string) bool {
		var n int
		if _, err := fmt.Sscanf(name, "g%d", &n); err == nil && n <= counter {
			return true
		}
		// Family-mode graphs land under "f<n>/<attr>/<measure>".
		if _, err := fmt.Sscanf(name, "f%d/", &n); err == nil && n <= counter {
			return true
		}
		return false
	}

	type report struct {
		Iteration  int   `json:"iteration"`
		RecoveryNS int64 `json:"recovery_ns"`
		Graphs     int   `json:"graphs_recovered"`
	}
	var reports []report

	for iter := 0; iter < iterations; iter++ {
		c := startChild(t, dir)
		// The restart IS the verification: recovered state must match
		// the acked ledger of every previous iteration.
		verifyAgainstAcked(t, c.addr, acked, attempted)
		if m := metricsOf(t, c.addr); iter > 0 {
			rec, _ := m["recovery_ns"].Int64()
			n, _ := m["graphs_stored"].Int64()
			reports = append(reports, report{Iteration: iter, RecoveryNS: rec, Graphs: int(n)})
			if rec <= 0 {
				t.Fatalf("iteration %d: recovery_ns = %d, want > 0", iter, rec)
			}
		}

		// Fire mutations until the kill lands. Responses that complete
		// before the SIGKILL are acked; everything else is in-flight
		// and must be invisible-or-complete after restart.
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				counter++
				var body string
				name := fmt.Sprintf("g%d", counter)
				if counter%5 == 0 {
					// Family mode commits several graphs per request.
					name = fmt.Sprintf("f%d", counter)
					body = fmt.Sprintf(`{"name":%q,"dataset":"D2","seed":%d,"scale":0.02,"family":"SB-SYN"}`, name, counter)
				} else {
					body = fmt.Sprintf(`{"name":%q,"dataset":"D2","seed":%d,"scale":0.02,"measure":"Jaccard"}`, name, counter)
				}
				resp, err := http.Post("http://"+c.addr+"/v1/graphs", "application/json", strings.NewReader(body))
				if err != nil {
					return // the kill landed mid-request
				}
				if resp.StatusCode != http.StatusCreated {
					resp.Body.Close()
					return
				}
				if strings.HasPrefix(name, "f") {
					var parsed struct {
						Graphs []infoJSON `json:"graphs"`
					}
					if json.NewDecoder(resp.Body).Decode(&parsed) == nil {
						for _, g := range parsed.Graphs {
							acked[g.Name] = ackedGraph{Version: g.Version, Checksum: g.Checksum}
						}
					}
				} else {
					var info infoJSON
					if json.NewDecoder(resp.Body).Decode(&info) == nil {
						acked[info.Name] = ackedGraph{Version: info.Version, Checksum: info.Checksum}
					}
				}
				resp.Body.Close()
			}
		}()
		// Randomized crash point: somewhere inside the request stream.
		time.Sleep(time.Duration(2+rng.Intn(120)) * time.Millisecond)
		c.kill(t)
		<-done
	}

	// Final phase: a quiet (kill-free) family generation, then one last
	// kill and restart, to pin the representation-cache reload counter
	// and byte-identical content end to end.
	c := startChild(t, dir)
	verifyAgainstAcked(t, c.addr, acked, attempted)
	counter++
	finalName := fmt.Sprintf("f%d", counter)
	body := fmt.Sprintf(`{"name":%q,"dataset":"D2","seed":9999,"scale":0.02,"family":"SB-SYN"}`, finalName)
	resp, err := http.Post("http://"+c.addr+"/v1/graphs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Graphs []infoJSON `json:"graphs"`
	}
	if resp.StatusCode != http.StatusCreated {
		raw := new(bytes.Buffer)
		raw.ReadFrom(resp.Body)
		resp.Body.Close()
		t.Fatalf("final family generate: %d %s", resp.StatusCode, raw.String())
	}
	if err := json.NewDecoder(resp.Body).Decode(&parsed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, g := range parsed.Graphs {
		acked[g.Name] = ackedGraph{Version: g.Version, Checksum: g.Checksum}
	}
	c.kill(t)

	c = startChild(t, dir)
	verifyAgainstAcked(t, c.addr, acked, attempted)
	m := metricsOf(t, c.addr)
	if rec, _ := m["recovery_ns"].Int64(); rec <= 0 {
		t.Fatal("final restart reports no recovery time")
	}
	if n, _ := m["journal_records_total"].Int64(); n <= 0 {
		// All records may have compacted into the manifest. When the
		// child's compactor ran after its last journal append, the
		// restart recovers from the manifest alone and counts neither
		// records nor compactions; the snapshot state it loaded is then
		// on disk (snapshot_bytes is measured at open). Accept 0 only
		// with compactions or snapshot bytes.
		comp, _ := m["compactions_total"].Int64()
		snap, _ := m["snapshot_bytes"].Int64()
		if comp <= 0 && snap <= 0 {
			t.Fatal("no journal records, no compactions and no snapshot bytes: the durable path did not run")
		}
	}
	// Byte-identical recovery, verified client-side: download one acked
	// family graph and recompute its checksum locally.
	one := parsed.Graphs[0]
	el, err := http.Get("http://" + c.addr + "/v1/graphs/" + one.Name + "?format=edgelist")
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.ReadEdgeList(el.Body)
	el.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%016x", g.Checksum()); got != one.Checksum {
		t.Fatalf("client-side checksum %s != acked %s", got, one.Checksum)
	}

	if rep, _ := m["recovery_ns"].Int64(); rep > 0 {
		reports = append(reports, report{Iteration: iterations, RecoveryNS: rep, Graphs: len(listGraphs(t, c.addr))})
	}
	if path := os.Getenv("DURABILITY_REPORT"); path != "" {
		var buf bytes.Buffer
		for _, r := range reports {
			raw, _ := json.Marshal(r)
			buf.Write(raw)
			buf.WriteByte('\n')
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Logf("writing durability report: %v", err)
		}
	}
	t.Logf("kill -9 survived %d iterations, %d graphs acked and recovered", iterations, len(acked))
}
