package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/ccer-go/ccer/internal/obs"
	"github.com/ccer-go/ccer/internal/resilience"
)

// RouterConfig configures a cluster router.
type RouterConfig struct {
	// Backends are the erserve base URLs fronted by this router.
	Backends []string
	// Replicas is how many backends host each graph (rendezvous
	// placement); 0 means 2, clamped to len(Backends).
	Replicas int
	// ProbeInterval is the /readyz probing period; 0 means 250ms.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe; 0 means 1s. A hung backend (e.g.
	// SIGSTOP) fails probes by timeout, which is what opens its breaker
	// — data-plane requests to it are cancelled by hedge winners and
	// deliberately carry no breaker penalty.
	ProbeTimeout time.Duration
	// BreakerThreshold is the consecutive failures that open a
	// backend's circuit; 0 means 3.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit waits before the
	// half-open trial; 0 means 1s.
	BreakerCooldown time.Duration
	// HedgeAfter is how long a match read waits before a second
	// request is hedged to another replica. 0 means adaptive: the
	// router's observed p95 read latency (with a 25ms floor), falling
	// back to 100ms until enough reads have been observed.
	HedgeAfter time.Duration
	// RepairInterval paces the anti-entropy repair loop (jittered to
	// [interval/2, 3*interval/2] per scan); 0 means 2s, negative
	// disables repair entirely. Fan misses, backend rejoins and
	// elasticity changes also kick an immediate scan.
	RepairInterval time.Duration
	// RepairConcurrency bounds concurrent per-graph repair streams
	// within one scan; 0 means 4.
	RepairConcurrency int
}

func (c *RouterConfig) withDefaults() RouterConfig {
	out := *c
	if out.Replicas <= 0 {
		out.Replicas = 2
	}
	// Replicas is deliberately NOT clamped to len(Backends) here: the
	// backend set is live (AddBackend/RemoveBackend), so the clamp
	// happens per placement in Replicas(), against the set of the
	// moment.
	if out.ProbeInterval <= 0 {
		out.ProbeInterval = 250 * time.Millisecond
	}
	if out.ProbeTimeout <= 0 {
		out.ProbeTimeout = time.Second
	}
	if out.BreakerThreshold <= 0 {
		out.BreakerThreshold = 3
	}
	if out.BreakerCooldown <= 0 {
		out.BreakerCooldown = time.Second
	}
	if out.RepairInterval == 0 {
		out.RepairInterval = 2 * time.Second
	}
	if out.RepairConcurrency <= 0 {
		out.RepairConcurrency = 4
	}
	return out
}

// Router fronts a set of erserve nodes as one replicated service.
// Writes fan to every replica of the graph's placement key, reads are
// served by any healthy replica with hedging for slow ones, and
// per-backend health (active /readyz probes + passive request
// outcomes) feeds circuit breakers so a dead backend stops receiving
// traffic within a probe interval and rejoins via a half-open trial
// when it recovers.
type Router struct {
	cfg RouterConfig
	// mu guards the live backend set. bases is copy-on-write: readers
	// snapshot the slice header under RLock and iterate lock-free, so
	// AddBackend/RemoveBackend never stall the data plane.
	mu       sync.RWMutex
	bases    []string
	backends map[string]*backend
	mux      *http.ServeMux
	obs      *obs.Registry

	requests  *obs.Counter
	hedges    *obs.Counter
	hedgeWins *obs.Counter
	failovers *obs.Counter
	fanMisses *obs.Counter
	readDur   *obs.Histogram

	// Anti-entropy state (repair.go).
	repairScans    *obs.Counter
	repairGraphs   *obs.Counter
	repairBytes    *obs.Counter
	repairFailures *obs.Counter
	repairKick     chan struct{}
	divergedMu     sync.Mutex
	diverged       map[string]int // graph -> stale replicas, last scan

	bgCtx    context.Context
	bgCancel context.CancelFunc
	bgWG     sync.WaitGroup
}

// NewRouter returns a started router (its probers, and the repair loop
// unless disabled, are running).
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("cluster: no backends")
	}
	rt := &Router{
		cfg:        cfg,
		bases:      append([]string(nil), cfg.Backends...),
		backends:   make(map[string]*backend, len(cfg.Backends)),
		mux:        http.NewServeMux(),
		repairKick: make(chan struct{}, 1),
		diverged:   map[string]int{},
	}
	for _, base := range rt.bases {
		if rt.backends[base] != nil {
			return nil, fmt.Errorf("cluster: duplicate backend %s", base)
		}
		rt.backends[base] = newBackend(base, cfg.BreakerThreshold, cfg.BreakerCooldown)
	}
	rt.initObs()
	rt.routes()
	rt.bgCtx, rt.bgCancel = context.WithCancel(context.Background())
	for _, base := range rt.bases {
		rt.startProber(rt.backends[base])
	}
	if cfg.RepairInterval > 0 {
		rt.bgWG.Add(1)
		go rt.repairLoop(rt.bgCtx)
	}
	return rt, nil
}

// Close stops the probers and the repair loop.
func (rt *Router) Close() {
	rt.bgCancel()
	rt.bgWG.Wait()
}

// snapshot returns the backend set of the moment: the copy-on-write
// bases slice and the matching *backend list, in the same order.
func (rt *Router) snapshot() ([]string, []*backend) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	bases := rt.bases
	bs := make([]*backend, len(bases))
	for i, base := range bases {
		bs[i] = rt.backends[base]
	}
	return bases, bs
}

// AddBackend grows the live backend set: the new node starts being
// probed immediately, rendezvous placement recomputes implicitly
// (placement is a pure function of the set), and a repair scan is
// kicked to migrate the names whose replica set now includes the
// newcomer — HRW guarantees those are the only ones that move.
func (rt *Router) AddBackend(base string) error {
	if base == "" {
		return fmt.Errorf("cluster: empty backend URL")
	}
	rt.mu.Lock()
	if rt.backends[base] != nil {
		rt.mu.Unlock()
		return fmt.Errorf("cluster: backend %s already present", base)
	}
	b := newBackend(base, rt.cfg.BreakerThreshold, rt.cfg.BreakerCooldown)
	next := make([]string, len(rt.bases)+1)
	copy(next, rt.bases)
	next[len(rt.bases)] = base
	rt.bases = next
	rt.backends[base] = b
	rt.mu.Unlock()
	rt.startProber(b)
	rt.kickRepair()
	return nil
}

// RemoveBackend shrinks the live backend set. The node's prober stops,
// placement recomputes implicitly, and a repair scan is kicked so the
// names that counted the leaver as a replica re-replicate onto their
// new set from the surviving copies. Removing the last backend is
// refused — a router fronting nothing can only error.
func (rt *Router) RemoveBackend(base string) error {
	rt.mu.Lock()
	b := rt.backends[base]
	if b == nil {
		rt.mu.Unlock()
		return fmt.Errorf("cluster: no backend %s", base)
	}
	if len(rt.bases) == 1 {
		rt.mu.Unlock()
		return fmt.Errorf("cluster: refusing to remove the last backend %s", base)
	}
	next := make([]string, 0, len(rt.bases)-1)
	for _, have := range rt.bases {
		if have != base {
			next = append(next, have)
		}
	}
	rt.bases = next
	delete(rt.backends, base)
	rt.mu.Unlock()
	if b.stopProbe != nil {
		b.stopProbe()
	}
	rt.kickRepair()
	return nil
}

// startProber spawns the backend's dedicated probe goroutine. Each
// backend paces its own probes with decorrelated jitter seeded from its
// URL, so N backends never fire in lockstep (a synchronized probe burst
// every interval is a self-inflicted thundering herd at exactly the
// moment a struggling cluster least needs one). The unhealthy→healthy
// edge kicks an immediate repair scan: a rejoining backend missed every
// write fanned while it was down.
func (rt *Router) startProber(b *backend) {
	ctx, cancel := context.WithCancel(rt.bgCtx)
	b.stopProbe = cancel
	rt.bgWG.Add(1)
	go func() {
		defer rt.bgWG.Done()
		pace := resilience.NewPace(rt.cfg.ProbeInterval, int64(fnv64a(b.base)))
		healthy := b.probe(ctx, rt.cfg.ProbeTimeout)
		for {
			if resilience.SleepCtx(ctx, pace.Next()) != nil {
				return
			}
			now := b.probe(ctx, rt.cfg.ProbeTimeout)
			if now && !healthy {
				rt.kickRepair()
			}
			healthy = now
		}
	}()
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt.requests.Inc()
		rt.mux.ServeHTTP(w, r)
	})
}

func (rt *Router) initObs() {
	r := obs.NewRegistry()
	rt.obs = r
	rt.requests = r.Counter("ccer_router_requests_total", "Requests received by the cluster router.")
	rt.hedges = r.Counter("ccer_router_hedges_total", "Hedged duplicate reads fired after the hedge delay.")
	rt.hedgeWins = r.Counter("ccer_router_hedge_wins_total", "Reads won by a hedged or failed-over attempt.")
	rt.failovers = r.Counter("ccer_router_failovers_total", "Attempts moved to the next replica after a failure.")
	rt.fanMisses = r.Counter("ccer_router_write_fan_misses_total",
		"Write fan-out attempts that failed on one replica while another succeeded (replica divergence until the node is rebuilt).")
	rt.readDur = r.Histogram("ccer_router_read_seconds", "Routed read latency (feeds the adaptive hedge delay).")
	rt.repairScans = r.Counter("ccer_router_repair_scans_total",
		"Anti-entropy scans run (periodic, fan-miss-kicked, rejoin-kicked, or elasticity-kicked).")
	rt.repairGraphs = r.Counter("ccer_router_repair_graphs_repaired_total",
		"Stale replica copies converged by streaming a peer's edge list or propagating a tombstone.")
	rt.repairBytes = r.Counter("ccer_router_repair_bytes_total",
		"Edge-list bytes streamed to stale replicas by the repair loop.")
	rt.repairFailures = r.Counter("ccer_router_repair_failures_total",
		"Repair attempts that failed (retried on the next scan).")
	r.GaugeFunc("ccer_router_backends", "Live backends.",
		func() float64 {
			bases, _ := rt.snapshot()
			return float64(len(bases))
		})
	r.GaugeFunc("ccer_router_repair_diverged_graphs",
		"Graphs with at least one reachable stale replica, per the last repair scan (0 = converged).",
		func() float64 {
			rt.divergedMu.Lock()
			defer rt.divergedMu.Unlock()
			return float64(len(rt.diverged))
		})
	r.LabeledGaugeFunc("ccer_router_repair_divergence",
		"Reachable stale replicas per graph, per the last repair scan.", "graph",
		func() map[string]int64 {
			rt.divergedMu.Lock()
			defer rt.divergedMu.Unlock()
			out := make(map[string]int64, len(rt.diverged))
			for name, n := range rt.diverged {
				out[name] = int64(n)
			}
			return out
		})
	r.LabeledGaugeFunc("ccer_router_backend_healthy",
		"Per-backend routability: 1 when ready and the circuit allows traffic.", "backend",
		func() map[string]int64 {
			bases, bs := rt.snapshot()
			out := make(map[string]int64, len(bases))
			for i, base := range bases {
				v := int64(0)
				if bs[i].Healthy() {
					v = 1
				}
				out[base] = v
			}
			return out
		})
	r.LabeledCounterFunc("ccer_router_breaker_opens_total",
		"Circuit-breaker open transitions per backend.", "backend",
		func() map[string]int64 {
			bases, bs := rt.snapshot()
			out := make(map[string]int64, len(bases))
			for i, base := range bases {
				opens, _, _ := bs[i].breaker.Counts()
				out[base] = opens
			}
			return out
		})
	r.LabeledCounterFunc("ccer_router_probe_failures_total",
		"Failed /readyz probes per backend.", "backend",
		func() map[string]int64 {
			bases, bs := rt.snapshot()
			out := make(map[string]int64, len(bases))
			for i, base := range bases {
				out[base] = bs[i].probeFailures.Load()
			}
			return out
		})
}

func (rt *Router) routes() {
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /readyz", rt.handleReadyz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /v1/cluster", rt.handleCluster)
	rt.mux.HandleFunc("POST /v1/cluster/backends", rt.handleBackendAdd)
	rt.mux.HandleFunc("DELETE /v1/cluster/backends", rt.handleBackendRemove)
	rt.mux.HandleFunc("POST /v1/cluster/repair", rt.handleRepairKick)
	rt.mux.HandleFunc("POST /v1/graphs", rt.handleWrite)
	rt.mux.HandleFunc("GET /v1/graphs", rt.handleGraphList)
	rt.mux.HandleFunc("GET /v1/graphs/{name...}", rt.handleGraphRead)
	rt.mux.HandleFunc("DELETE /v1/graphs/{name...}", rt.handleDelete)
	rt.mux.HandleFunc("POST /v1/match", rt.handleMatch)
	rt.mux.HandleFunc("POST /v1/sweeps", rt.handleSweepCreate)
	rt.mux.HandleFunc("GET /v1/sweeps", rt.handleSweepList)
	rt.mux.HandleFunc("GET /v1/sweeps/{id}", rt.handleSweepFan)
	rt.mux.HandleFunc("DELETE /v1/sweeps/{id}", rt.handleSweepFan)
}

// placementKey maps a graph name to its placement unit: the segment
// before the first "/". Family-mode generation stores a whole weight
// family under "<base>/<function>", and hashing the base keeps every
// graph of the family — and the family write itself, keyed by its
// request name — on the same replica set.
func placementKey(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return name[:i]
	}
	return name
}

// replicasFor returns the backends hosting name, preference-ordered for
// routing: the rendezvous replica set with healthy backends first
// (stable within each class), plus whether ANY replica of the placement
// set is routable. Unhealthy replicas stay in the list as a last resort
// — breakers can be wrong, and trying a suspect backend beats refusing
// a read outright — but an all-unhealthy set means their answers (a 404
// from a stale rejoiner, a refused connection) cannot be trusted as the
// cluster's verdict, and the caller reports 503 no_replica instead.
func (rt *Router) replicasFor(name string) (order []*backend, anyHealthy bool) {
	rt.mu.RLock()
	bases := Replicas(placementKey(name), rt.bases, rt.cfg.Replicas)
	set := make([]*backend, len(bases))
	for i, base := range bases {
		set[i] = rt.backends[base]
	}
	rt.mu.RUnlock()
	order = make([]*backend, 0, len(set))
	for _, b := range set {
		if b.Healthy() {
			order = append(order, b)
		}
	}
	anyHealthy = len(order) > 0
	for _, b := range set {
		if !b.Healthy() {
			order = append(order, b)
		}
	}
	return order, anyHealthy
}

// healthyCount reports how many backends are currently routable.
func (rt *Router) healthyCount() int {
	_, bs := rt.snapshot()
	n := 0
	for _, b := range bs {
		if b.Healthy() {
			n++
		}
	}
	return n
}

func routerJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func routerError(w http.ResponseWriter, status int, reason, format string, args ...any) {
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	routerJSON(w, status, map[string]string{
		"error":  fmt.Sprintf(format, args...),
		"reason": reason,
	})
}

// proxy relays a backend reply verbatim: status, the content headers
// that matter (Content-Type, Retry-After) and the exact body bytes —
// byte-identical to asking the backend directly.
func proxy(w http.ResponseWriter, reply *Reply) {
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := reply.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(reply.Status)
	_, _ = w.Write(reply.Body)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	bases, _ := rt.snapshot()
	routerJSON(w, http.StatusOK, map[string]any{"status": "ok", "backends": len(bases)})
}

func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	bases, _ := rt.snapshot()
	healthy := rt.healthyCount()
	status := http.StatusOK
	if healthy == 0 {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	routerJSON(w, status, map[string]any{
		"ready":            healthy > 0,
		"healthy_backends": healthy,
		"backends":         len(bases),
	})
}

// repairView is the anti-entropy block of GET /v1/cluster: the repair
// counters plus the per-graph divergence of the last scan — empty means
// every reachable replica set is checksum-identical.
type repairView struct {
	Enabled        bool           `json:"enabled"`
	IntervalMS     float64        `json:"interval_ms"`
	Scans          int64          `json:"scans_total"`
	GraphsRepaired int64          `json:"graphs_repaired_total"`
	Bytes          int64          `json:"bytes_total"`
	Failures       int64          `json:"failures_total"`
	Diverged       map[string]int `json:"diverged"`
}

// clusterState is the GET /v1/cluster debug document.
type clusterState struct {
	Backends        []BackendState `json:"backends"`
	Replicas        int            `json:"replicas"`
	HealthyBackends int            `json:"healthy_backends"`
	HedgeAfterMS    float64        `json:"hedge_after_ms"`
	Repair          repairView     `json:"repair"`
}

func (rt *Router) clusterState() clusterState {
	st := clusterState{
		Replicas:        rt.cfg.Replicas,
		HealthyBackends: rt.healthyCount(),
		HedgeAfterMS:    float64(rt.hedgeDelay()) / float64(time.Millisecond),
		Repair: repairView{
			Enabled:        rt.cfg.RepairInterval > 0,
			IntervalMS:     float64(rt.cfg.RepairInterval) / float64(time.Millisecond),
			Scans:          rt.repairScans.Load(),
			GraphsRepaired: rt.repairGraphs.Load(),
			Bytes:          rt.repairBytes.Load(),
			Failures:       rt.repairFailures.Load(),
			Diverged:       rt.divergedSnapshot(),
		},
	}
	_, bs := rt.snapshot()
	for _, b := range bs {
		st.Backends = append(st.Backends, b.state())
	}
	return st
}

func (rt *Router) divergedSnapshot() map[string]int {
	rt.divergedMu.Lock()
	defer rt.divergedMu.Unlock()
	out := make(map[string]int, len(rt.diverged))
	for name, n := range rt.diverged {
		out[name] = n
	}
	return out
}

func (rt *Router) handleCluster(w http.ResponseWriter, r *http.Request) {
	routerJSON(w, http.StatusOK, rt.clusterState())
}

// handleBackendAdd is POST /v1/cluster/backends {"url": "..."}: live
// elasticity's grow operation. The reply is the fresh cluster state;
// migration of the names whose replica set changed happens via the
// repair scan the add kicked.
func (rt *Router) handleBackendAdd(w http.ResponseWriter, r *http.Request) {
	var req struct {
		URL string `json:"url"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.URL == "" {
		routerError(w, http.StatusBadRequest, "", "bad backend add request: need {\"url\": ...}")
		return
	}
	if err := rt.AddBackend(req.URL); err != nil {
		routerError(w, http.StatusConflict, "", "%v", err)
		return
	}
	routerJSON(w, http.StatusOK, rt.clusterState())
}

// handleBackendRemove is DELETE /v1/cluster/backends?url=...: live
// elasticity's shrink operation.
func (rt *Router) handleBackendRemove(w http.ResponseWriter, r *http.Request) {
	base := r.URL.Query().Get("url")
	if base == "" {
		routerError(w, http.StatusBadRequest, "", "bad backend remove request: need ?url=")
		return
	}
	if err := rt.RemoveBackend(base); err != nil {
		routerError(w, http.StatusConflict, "", "%v", err)
		return
	}
	routerJSON(w, http.StatusOK, rt.clusterState())
}

// handleRepairKick is POST /v1/cluster/repair: ask for an immediate
// anti-entropy scan (it runs asynchronously; poll GET /v1/cluster for
// the outcome).
func (rt *Router) handleRepairKick(w http.ResponseWriter, r *http.Request) {
	if rt.cfg.RepairInterval <= 0 {
		routerError(w, http.StatusConflict, "", "repair is disabled (RepairInterval < 0)")
		return
	}
	rt.kickRepair()
	routerJSON(w, http.StatusAccepted, map[string]any{"kicked": true})
}

// handleMetrics serves the registry's two views, negotiated as on
// erserve: the Prometheus exposition, or JSON holding every counter and
// gauge family without "ccer_router_" plus the cluster state.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if obs.WantsPrometheus(r) {
		w.Header().Set("Content-Type", obs.ContentType)
		_ = rt.obs.WritePrometheus(w)
		return
	}
	m := rt.obs.Values("ccer_router_")
	m["cluster"] = rt.clusterState()
	routerJSON(w, http.StatusOK, m)
}

// hedgeDelay is the wait before a read is duplicated to another
// replica: configured, or the observed p95 read latency (floored at
// 25ms so a fast quiet cluster does not hedge every request), or 100ms
// until enough reads have been seen to estimate a p95.
func (rt *Router) hedgeDelay() time.Duration {
	if rt.cfg.HedgeAfter > 0 {
		return rt.cfg.HedgeAfter
	}
	const floor, cold = 25 * time.Millisecond, 100 * time.Millisecond
	snap := rt.readDur.Snapshot()
	if snap.Count < 20 {
		return cold
	}
	p95 := time.Duration(snap.Quantile(0.95))
	if p95 < floor {
		return floor
	}
	return p95
}

// attemptOutcome is one backend's answer within a fan or hedge.
type attemptOutcome struct {
	b     *backend
	reply *Reply
	err   error
}

// fire runs one attempt against b and feeds the outcome into both the
// breaker and ch. The error fed to the breaker distinguishes transport
// failures and raw (non-shed) 5xx — both the backend's fault — from
// sheds and client errors, which are the backend doing its job.
func fire(ctx context.Context, ch chan<- attemptOutcome, b *backend, method, path, contentType string, body []byte) {
	reply, err := b.client.do(ctx, method, path, contentType, body)
	if err == nil {
		b.observe(statusOf(reply))
	} else {
		b.observe(err)
	}
	ch <- attemptOutcome{b: b, reply: reply, err: err}
}

// readAccepted reports whether a reply settles a routed read: anything
// the backend answered deliberately except a 404 or a shed — those are
// retried on the next replica, because a freshly rejoined node may
// simply not hold the graph (404) or be momentarily full (503) while
// its peer can answer.
func readAccepted(reply *Reply) bool {
	if reply.Status == http.StatusNotFound || reply.Status == http.StatusServiceUnavailable {
		return false
	}
	return reply.Status < 500
}

// routeRead serves one read with failover and hedging: the preferred
// replica is asked first; a failure fails over immediately, and a slow
// response hedges a duplicate to the next replica after the hedge
// delay. The first accepted reply wins and every other in-flight
// attempt is cancelled (the backends count those as 499 client
// disconnects, not errors). Replies that fail soft (404 from a stale
// replica, a shed) are kept as fallback answers if no replica does
// better.
//
// anyHealthy is the placement set's routability at routing time. When
// the whole set is unhealthy, the attempts still fire (a breaker can be
// wrong), but their failures — and crucially their 404s, which with
// every replica down or freshly rejoined say nothing about whether the
// graph exists — are not trusted as a verdict: the client gets a 503
// with Retry-After and reason no_replica instead of a misleading 404 or
// a raw connection error.
func (rt *Router) routeRead(w http.ResponseWriter, r *http.Request, order []*backend, anyHealthy bool, path, contentType string, body []byte) {
	if len(order) == 0 {
		routerError(w, http.StatusServiceUnavailable, "no_backend", "no backend available")
		return
	}
	start := time.Now()
	hctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	ch := make(chan attemptOutcome, len(order))
	launched := 1
	go fire(hctx, ch, order[0], r.Method, path, contentType, body)
	hedge := time.NewTimer(rt.hedgeDelay())
	defer hedge.Stop()

	var fallback *Reply
	settled := 0
	for {
		select {
		case out := <-ch:
			settled++
			if out.err == nil && readAccepted(out.reply) {
				cancel() // losers die as 499s on their backends
				rt.readDur.Observe(time.Since(start))
				if out.b != order[0] {
					rt.hedgeWins.Inc()
				}
				proxy(w, out.reply)
				return
			}
			// Soft failures keep the best reply for the all-failed case:
			// a shed beats a 404 beats nothing.
			if out.err == nil {
				if fallback == nil || out.reply.Status == http.StatusServiceUnavailable {
					fallback = out.reply
				}
			}
			if launched < len(order) {
				rt.failovers.Inc()
				go fire(hctx, ch, order[launched], r.Method, path, contentType, body)
				launched++
			} else if settled == launched {
				if !anyHealthy {
					routerError(w, http.StatusServiceUnavailable, "no_replica",
						"every replica of this graph's placement set is unhealthy")
					return
				}
				if fallback != nil {
					proxy(w, fallback)
					return
				}
				routerError(w, http.StatusServiceUnavailable, "no_backend",
					"all %d replicas failed", len(order))
				return
			}
		case <-hedge.C:
			if launched < len(order) {
				rt.hedges.Inc()
				go fire(hctx, ch, order[launched], r.Method, path, contentType, body)
				launched++
			}
		case <-r.Context().Done():
			return
		}
	}
}

// maxBodyBytes caps buffered request bodies; the router buffers writes
// to fan them out. It also caps the declared length that Client.do
// allocates up front for a backend reply.
const maxBodyBytes = 64 << 20

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		routerError(w, http.StatusBadRequest, "", "read body: %v", err)
		return nil, false
	}
	return body, true
}

// handleWrite fans POST /v1/graphs to every replica of the graph's
// placement key. Cluster mode requires an explicit graph name: the
// name IS the placement key, and backend-assigned auto names would
// diverge across replicas. The owner's reply is preferred; with the
// owner down, any succeeding replica's reply is returned (per-name
// versioning makes them agree on everything but the creation
// timestamp). A replica that misses the write while dead serves stale
// state until it is rebuilt — the router counts those misses.
func (rt *Router) handleWrite(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	contentType := r.Header.Get("Content-Type")
	name := r.URL.Query().Get("name")
	if strings.HasPrefix(contentType, "application/json") {
		var req struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			routerError(w, http.StatusBadRequest, "", "bad request body: %v", err)
			return
		}
		name = req.Name
	}
	if name == "" {
		routerError(w, http.StatusBadRequest, "",
			"cluster mode requires an explicit graph name (auto-assigned names would diverge across replicas)")
		return
	}
	path := "/v1/graphs"
	if !strings.HasPrefix(contentType, "application/json") {
		path = graphPath(http.MethodPost, name, "")
	}
	rt.fanWrite(w, r, name, http.MethodPost, path, contentType, body)
}

func (rt *Router) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rt.fanWrite(w, r, name, http.MethodDelete, graphPath(http.MethodDelete, name, ""), "", nil)
}

// fanWrite sends the mutation to every replica of name concurrently
// and replies with the most-preferred success. All replicas failing
// surfaces the most useful failure (a shed with its Retry-After when
// any backend sent one). Partial failures — some replicas applied the
// write, some did not — succeed (the data is durable and served) and
// are counted as fan misses.
func (rt *Router) fanWrite(w http.ResponseWriter, r *http.Request, name, method, path, contentType string, body []byte) {
	rt.mu.RLock()
	bases := Replicas(placementKey(name), rt.bases, rt.cfg.Replicas)
	set := make([]*backend, len(bases))
	for i, base := range bases {
		set[i] = rt.backends[base]
	}
	rt.mu.RUnlock()
	// Skip replicas whose circuit is open (not routable right now):
	// fanning into a known-dead backend would stall the write on its
	// timeout. If everything is open, try the full set anyway — but an
	// all-unhealthy fan that fails is reported as no_replica, not as a
	// generic backend error.
	attempt := make([]*backend, 0, len(set))
	for _, b := range set {
		if b.Healthy() {
			attempt = append(attempt, b)
		}
	}
	anyHealthy := len(attempt) > 0
	if !anyHealthy {
		attempt = set
	}
	ch := make(chan attemptOutcome, len(attempt))
	for _, b := range attempt {
		go fire(r.Context(), ch, b, method, path, contentType, body)
	}
	outcomes := make(map[*backend]attemptOutcome, len(attempt))
	for range attempt {
		out := <-ch
		outcomes[out.b] = out
	}
	// Preference order: the rendezvous ranking, so the owner's reply
	// wins when the owner succeeded.
	var best *Reply
	var fallback *Reply
	succeeded := 0
	for _, b := range set {
		out, ok := outcomes[b]
		if !ok || out.err != nil {
			continue
		}
		if out.reply.Status < 300 {
			succeeded++
			if best == nil {
				best = out.reply
			}
		} else if fallback == nil || out.reply.Status == http.StatusServiceUnavailable {
			fallback = out.reply
		}
	}
	if best != nil {
		if succeeded < len(attempt) {
			// Replica divergence: some replica missed an acknowledged
			// write. Count it AND schedule its cure — an immediate
			// anti-entropy scan picks the miss up as soon as the stale
			// replica answers listings again.
			rt.fanMisses.Add(int64(len(attempt) - succeeded))
			rt.kickRepair()
		}
		proxy(w, best)
		return
	}
	if fallback != nil {
		proxy(w, fallback)
		return
	}
	if !anyHealthy {
		routerError(w, http.StatusServiceUnavailable, "no_replica",
			"every replica of %q's placement set is unhealthy", name)
		return
	}
	routerError(w, http.StatusServiceUnavailable, "no_backend",
		"write to %q failed on all %d replicas", name, len(attempt))
}

func (rt *Router) handleGraphRead(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	order, anyHealthy := rt.replicasFor(name)
	rt.routeRead(w, r, order, anyHealthy, graphPath(http.MethodGet, name, r.URL.RawQuery), "", nil)
}

func (rt *Router) handleMatch(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req struct {
		Graph string `json:"graph"`
	}
	if err := json.Unmarshal(body, &req); err != nil || req.Graph == "" {
		routerError(w, http.StatusBadRequest, "", "bad match request: missing graph")
		return
	}
	order, anyHealthy := rt.replicasFor(req.Graph)
	rt.routeRead(w, r, order, anyHealthy, "/v1/match", "application/json", body)
}

// handleGraphList merges the backend listings: replicas report the
// same graph at the same version (per-name versioning), so entries
// dedupe by name keeping the highest version seen (a freshly rejoined
// replica may briefly report a stale one).
func (rt *Router) handleGraphList(w http.ResponseWriter, r *http.Request) {
	type listed struct {
		version int64
		raw     json.RawMessage
	}
	merged := map[string]listed{}
	reached := 0
	_, bs := rt.snapshot()
	for _, b := range bs {
		if !b.Healthy() {
			continue
		}
		reply, err := b.client.do(r.Context(), http.MethodGet, "/v1/graphs", "", nil)
		b.observe(err)
		if err != nil || reply.Status != http.StatusOK {
			continue
		}
		reached++
		var page struct {
			Graphs []json.RawMessage `json:"graphs"`
		}
		if json.Unmarshal(reply.Body, &page) != nil {
			continue
		}
		for _, raw := range page.Graphs {
			var id struct {
				Name    string `json:"name"`
				Version int64  `json:"version"`
			}
			if json.Unmarshal(raw, &id) != nil || id.Name == "" {
				continue
			}
			if have, ok := merged[id.Name]; !ok || id.Version > have.version {
				merged[id.Name] = listed{version: id.Version, raw: raw}
			}
		}
	}
	if reached == 0 {
		routerError(w, http.StatusServiceUnavailable, "no_backend", "no backend reachable")
		return
	}
	names := make([]string, 0, len(merged))
	for name := range merged {
		names = append(names, name)
	}
	sort.Strings(names)
	graphs := make([]json.RawMessage, len(names))
	for i, name := range names {
		graphs[i] = merged[name].raw
	}
	routerJSON(w, http.StatusOK, map[string]any{"graphs": graphs})
}

// connRefused reports whether err is a transport error that proves the
// request never reached a server process: the dial was refused (nothing
// listening — the crashed-backend signature) or could not resolve a
// route.
func connRefused(err error) bool {
	if errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ENETUNREACH) {
		return true
	}
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

func (rt *Router) handleSweepCreate(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req struct {
		Graph string `json:"graph"`
	}
	if err := json.Unmarshal(body, &req); err != nil || req.Graph == "" {
		routerError(w, http.StatusBadRequest, "", "bad sweep request: missing graph")
		return
	}
	// A sweep runs on one node (jobs are not replicated); route to the
	// graph's preferred replica, failing over only when the attempt
	// provably did not start a job — a refused connection, a shed, or
	// the replica not holding the graph.
	order, _ := rt.replicasFor(req.Graph)
	var fallback *Reply
	for i, b := range order {
		if i > 0 {
			rt.failovers.Inc()
		}
		reply, err := b.client.do(r.Context(), http.MethodPost, "/v1/sweeps", "application/json", body)
		if err != nil {
			b.observe(err)
			if connRefused(err) {
				continue // provably no job started; the next replica is safe
			}
			routerError(w, http.StatusBadGateway, "backend_failed", "sweep create: %v", err)
			return
		}
		b.observe(statusOf(reply))
		if reply.Status == http.StatusNotFound || reply.Status == http.StatusServiceUnavailable {
			fallback = reply
			continue
		}
		proxy(w, reply)
		return
	}
	if fallback != nil {
		proxy(w, fallback)
		return
	}
	routerError(w, http.StatusServiceUnavailable, "no_backend", "no replica accepted the sweep")
}

// handleSweepList merges sweep listings across every reachable backend.
func (rt *Router) handleSweepList(w http.ResponseWriter, r *http.Request) {
	var sweeps []json.RawMessage
	reached := 0
	_, bs := rt.snapshot()
	for _, b := range bs {
		if !b.Healthy() {
			continue
		}
		reply, err := b.client.do(r.Context(), http.MethodGet, "/v1/sweeps", "", nil)
		b.observe(err)
		if err != nil || reply.Status != http.StatusOK {
			continue
		}
		reached++
		var page struct {
			Sweeps []json.RawMessage `json:"sweeps"`
		}
		if json.Unmarshal(reply.Body, &page) == nil {
			sweeps = append(sweeps, page.Sweeps...)
		}
	}
	if reached == 0 {
		routerError(w, http.StatusServiceUnavailable, "no_backend", "no backend reachable")
		return
	}
	if sweeps == nil {
		sweeps = []json.RawMessage{}
	}
	routerJSON(w, http.StatusOK, map[string]any{"sweeps": sweeps})
}

// handleSweepFan locates a sweep by id: ids are node-local, so ask
// every backend in turn and relay the first non-404.
func (rt *Router) handleSweepFan(w http.ResponseWriter, r *http.Request) {
	path := "/v1/sweeps/" + url.PathEscape(r.PathValue("id"))
	var fallback *Reply
	_, bs := rt.snapshot()
	for _, b := range bs {
		reply, err := b.client.do(r.Context(), r.Method, path, "", nil)
		if err != nil {
			b.observe(err)
			continue
		}
		b.observe(statusOf(reply))
		if reply.Status == http.StatusNotFound {
			fallback = reply
			continue
		}
		proxy(w, reply)
		return
	}
	if fallback != nil {
		proxy(w, fallback)
		return
	}
	routerError(w, http.StatusServiceUnavailable, "no_backend", "no backend reachable")
}
