package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one erserve process the benchmark started.
type server struct {
	role    string // "node" or "router"
	base    string // http://127.0.0.1:<port>
	cmd     *exec.Cmd
	logDone chan struct{} // closed when the process's stderr reaches EOF

	mu   sync.Mutex
	tail []string // last stderr lines, for diagnostics

	stopOnce sync.Once
	stopErr  error
}

// startServer launches erserve on an ephemeral loopback port and returns
// once the process has logged the address it listens on.
func startServer(bin, role string, args ...string) (*server, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// The kernel kills the server should the driver die without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{role: role, cmd: cmd, logDone: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(s.logDone)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.tail = append(s.tail, line)
			if len(s.tail) > 20 {
				s.tail = s.tail[1:]
			}
			s.mu.Unlock()
			// "erserve: listening on ADDR (...)" or "erserve: routing on ADDR -> ..."
			if rest, ok := strings.CutPrefix(line, "erserve: "); ok {
				if _, after, ok := strings.Cut(rest, " on "); ok {
					addr, _, _ := strings.Cut(after, " ")
					select {
					case addrc <- addr:
					default:
					}
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case addr := <-addrc:
		s.base = "http://" + addr
		return s, nil
	case <-s.logDone:
		err := cmd.Wait()
		return nil, fmt.Errorf("%s exited before listening (%v): %s", role, err, s.lastLog())
	case <-time.After(30 * time.Second):
		_ = s.stop()
		return nil, fmt.Errorf("%s did not log its address within 30s", role)
	}
}

func (s *server) lastLog() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, " | ")
}

// stop shuts the server down gracefully (SIGTERM), killing it if it has
// not exited within 15s, and waits for the process to end.
func (s *server) stop() error {
	s.stopOnce.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.logDone:
		case <-time.After(15 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.logDone
		}
		if err := s.cmd.Wait(); err != nil {
			s.stopErr = fmt.Errorf("%s %s: %v: %s", s.role, s.base, err, s.lastLog())
		}
	})
	return s.stopErr
}

// clockTick is the unit of utime and stime in /proc/<pid>/stat: USER_HZ,
// which is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// cpu is the process's user plus system CPU time so far.
func (s *server) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; the fields after it do not.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for %s", s.role)
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat for %s", s.role)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSS is the process's peak resident set size (VmHWM) in bytes.
func (s *server) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM %q", v)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", s.role)
}

// topology is the set of server processes one workload runs against:
// one node, or nodes behind a router.
type topology struct {
	nodes  []*server
	router *server
}

// base is the URL clients talk to.
func (t *topology) base() string {
	if t.router != nil {
		return t.router.base
	}
	return t.nodes[0].base
}

func (t *topology) all() []*server {
	out := append([]*server(nil), t.nodes...)
	if t.router != nil {
		out = append(out, t.router)
	}
	return out
}

func (t *topology) backends() []string {
	out := make([]string, len(t.nodes))
	for i, n := range t.nodes {
		out[i] = n.base
	}
	return out
}

// stop stops every process and waits for each to exit.
func (t *topology) stop() error {
	var first error
	if t.router != nil {
		first = t.router.stop()
	}
	for _, n := range t.nodes {
		if err := n.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// cpu sums user plus system CPU per process, keyed by role.
func (t *topology) cpu() (map[string]time.Duration, error) {
	out := map[string]time.Duration{}
	for _, s := range t.all() {
		d, err := s.cpu()
		if err != nil {
			return nil, err
		}
		out[s.role] += d
	}
	return out, nil
}

// peakRSS sums the processes' peak resident set sizes.
func (t *topology) peakRSS() (int64, error) {
	var sum int64
	for _, s := range t.all() {
		b, err := s.peakRSS()
		if err != nil {
			return 0, err
		}
		sum += b
	}
	return sum, nil
}

// storageWrites sums the bytes the nodes have caused to be written to
// storage (write_bytes of /proc/<pid>/io): journal, snapshots and
// manifests, at the block layer. The data directories' size would not
// do: compaction and deletes shrink them while graphs are committed.
func (t *topology) storageWrites() (int64, error) {
	var sum int64
	for _, n := range t.nodes {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", n.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "write_bytes:"); ok {
				w, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
				if err != nil {
					return 0, fmt.Errorf("bad write_bytes %q", v)
				}
				sum += w
			}
		}
	}
	return sum, nil
}

// startTopology boots the workload's nodes and waits until every one
// answers /readyz 200. A router, if the workload has one, is started
// later by startRouter.
func startTopology(ctx context.Context, bin string, w *workload, dataDir string) (*topology, error) {
	t := &topology{}
	fail := func(err error) (*topology, error) {
		_ = t.stop()
		return nil, err
	}
	for i := 0; i < w.nodes; i++ {
		// -pprof lets collectGarbage start every timed phase right after a
		// collection.
		args := []string{"-pprof"}
		if w.durable {
			// Compaction every 2s, so each run's write path includes it.
			args = append(args, "-data-dir", filepath.Join(dataDir, fmt.Sprintf("node%d", i)), "-compact-every", "2s")
		}
		s, err := startServer(bin, "node", args...)
		if err != nil {
			return fail(err)
		}
		t.nodes = append(t.nodes, s)
	}
	for _, n := range t.nodes {
		if err := waitReady(ctx, n.base+"/readyz", nil); err != nil {
			return fail(err)
		}
	}
	return t, nil
}

// startRouter starts erserve -route over the nodes with replicas 2 and
// waits until it sees every backend healthy.
func (t *topology) startRouter(ctx context.Context, bin string) error {
	r, err := startServer(bin, "router", "-route", strings.Join(t.backends(), ","), "-replicas", "2")
	if err != nil {
		return err
	}
	t.router = r
	allHealthy := func(body []byte) bool {
		var st struct {
			Healthy int `json:"healthy_backends"`
		}
		return json.Unmarshal(body, &st) == nil && st.Healthy == len(t.nodes)
	}
	return waitReady(ctx, r.base+"/v1/cluster", allHealthy)
}

// collectGarbage runs a full garbage collection in every node (the heap
// profile endpoint collects first when asked with gc=1). A node's live
// heap holds its graphs and embedding models, hundreds of MB, so each
// collection costs a visible burst of CPU; whether one or two of them
// fall inside a timed phase would otherwise decide the phase's tail and
// CPU per operation. Starting every phase right after one makes the
// collections within it a function of the phase's own allocation.
func (t *topology) collectGarbage(c *http.Client) error {
	for _, n := range t.nodes {
		resp, err := c.Get(n.base + "/debug/pprof/heap?gc=1")
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("collect garbage on %s: status %d", n.base, resp.StatusCode)
		}
	}
	return nil
}

// waitReady polls url until it answers 200 (and ok accepts the body).
func waitReady(ctx context.Context, url string, ok func([]byte) bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK && (ok == nil || ok(body)) {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready within 30s", url)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}
