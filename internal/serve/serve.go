package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/ccer-go/ccer/internal/algo"
	"github.com/ccer-go/ccer/internal/core"
	"github.com/ccer-go/ccer/internal/durable"
	"github.com/ccer-go/ccer/internal/eval"
	"github.com/ccer-go/ccer/internal/obs"
	"github.com/ccer-go/ccer/internal/par"
	"github.com/ccer-go/ccer/internal/resilience"
	"github.com/ccer-go/ccer/internal/simgraph"
)

// Config tunes a Server. The zero value is a working configuration; every
// field has a serviceable default.
type Config struct {
	// CacheSize is the capacity of the match result cache in matchings
	// (one per (graph version, algorithm, threshold, seed)). 0 means 256;
	// negative disables caching.
	CacheSize int
	// JobWorkers is the number of goroutines executing async sweep jobs.
	// 0 means 2.
	JobWorkers int
	// JobQueueDepth is the backlog of queued sweep jobs before POST
	// /v1/sweeps starts returning 503. 0 means 64.
	JobQueueDepth int
	// JobHistory caps how many finished (done/failed/cancelled) sweep
	// jobs stay retrievable via GET /v1/sweeps/{id}; the oldest are
	// evicted beyond it so a resident server's memory stays bounded.
	// 0 means 256; negative retains none.
	JobHistory int
	// MaxGraphNodes caps the node count (|V1|+|V2|) a single graph may
	// declare, whether uploaded (the edge-list header is untrusted
	// input: a few bytes can demand gigabytes of adjacency arrays) or
	// generated. 0 means 1<<21; negative means no cap.
	MaxGraphNodes int
	// Parallelism is the worker count inside one match batch, sweep
	// grid or graph generation (a family's checksums included),
	// forwarded to the internal/par pool (0 means all CPUs, 1 serial).
	// Responses are deterministic at any setting.
	Parallelism int
	// MaxBodyBytes caps request bodies (edge-list uploads dominate).
	// 0 means 32 MiB.
	MaxBodyBytes int64
	// EnablePprof mounts the net/http/pprof endpoints under
	// /debug/pprof/. Off by default: the profiles expose internals and
	// cost CPU while sampling, so production deployments should gate
	// them behind operator intent (a flag on cmd/erserve).
	EnablePprof bool
	// RepCacheDatasets sizes the cross-build representation caches
	// (TF/TF-IDF spaces, n-gram graphs, embeddings, attribute profiles)
	// in resident datasets: repeated generation for an already-seen
	// (dataset, seed, scale) reuses the per-entity representations with
	// byte-identical output. 0 means 2; negative disables the caches.
	RepCacheDatasets int
	// DataDir, when set, makes the graph store durable: every commit is
	// journaled (fsync'd, CRC-framed) over content-addressed snapshots
	// in this directory, and a restart recovers every committed graph —
	// verified against its stored checksum — plus the spilled
	// representation-cache warm set. Empty keeps today's purely
	// in-memory behavior.
	DataDir string
	// CompactEvery is the background snapshot/compaction period of the
	// durable store (see durable.Config); only meaningful with DataDir.
	CompactEvery time.Duration
	// DataFS overrides the durable store's filesystem; nil means the
	// real one. The crash-injection tests substitute an in-memory
	// filesystem with fault points.
	DataFS durable.FS
	// TraceSlow is the duration above which a finished request is logged
	// as a structured JSON line with its per-stage span timings. 0
	// disables slow-request logging.
	TraceSlow time.Duration
	// AccessLog emits one structured JSON line per finished request
	// (without span details; those stay in the trace ring).
	AccessLog bool
	// TraceRing is how many recent request traces GET /v1/traces serves.
	// 0 means 64; negative retains none.
	TraceRing int
	// ObsLog receives the slow-request and access log lines; nil means
	// os.Stderr.
	ObsLog io.Writer
	// DisableObs turns the metrics registry and request tracer off
	// entirely (every instrument becomes a nil no-op). It exists to
	// measure instrumentation overhead; a disabled server answers
	// /metrics with 404 in both views.
	DisableObs bool
	// MatchTimeout bounds one POST /v1/match request end to end: the
	// handler derives a context.WithTimeout child and the compute layer
	// honors it, so an overrunning matching answers 504 (reason
	// "deadline") instead of holding the connection forever. 0 means
	// 30s; negative disables the deadline.
	MatchTimeout time.Duration
	// GenerateTimeout bounds one POST /v1/graphs generation the same
	// way. 0 means 2m; negative disables.
	GenerateTimeout time.Duration
	// SweepTimeout bounds one async sweep job execution; an overrunning
	// sweep fails with deadline exceeded rather than pinning a worker
	// forever. 0 means 10m; negative disables.
	SweepTimeout time.Duration
	// AdmissionSlots caps how many heavy computations (match leads,
	// generations, sweep executions) run at once. Excess requests wait
	// in a bounded two-priority queue — interactive match traffic is
	// granted freed slots before bulk generation/sweep work — and are
	// shed with 503 beyond its bounds. 0 means GOMAXPROCS; negative
	// disables admission control entirely.
	AdmissionSlots int
	// AdmissionDepth is the per-priority-class queue depth beyond which
	// requests are shed immediately (503, reason "queue_full").
	// 0 or negative means 128.
	AdmissionDepth int
	// AdmissionBudget is the longest a synchronous request waits in the
	// admission queue before being shed (503, reason "queue_timeout");
	// async sweep jobs wait on their context alone. 0 or negative means
	// 2s.
	AdmissionBudget time.Duration
	// Faults is the chaos-test fault-point registry consulted around
	// the heavy computations (points "match", "generate", "sweep").
	// nil — the production configuration — injects nothing.
	Faults *resilience.Faults
}

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.JobQueueDepth <= 0 {
		c.JobQueueDepth = 64
	}
	if c.JobHistory == 0 {
		c.JobHistory = 256
	}
	if c.MaxGraphNodes == 0 {
		c.MaxGraphNodes = 1 << 21
	}
	if c.MaxGraphNodes < 0 {
		c.MaxGraphNodes = 0 // no cap, the ReadEdgeListMax convention
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.RepCacheDatasets == 0 {
		c.RepCacheDatasets = 2
	}
	if c.TraceRing == 0 {
		c.TraceRing = 64
	}
	if c.MatchTimeout == 0 {
		c.MatchTimeout = 30 * time.Second
	}
	if c.GenerateTimeout == 0 {
		c.GenerateTimeout = 2 * time.Minute
	}
	if c.SweepTimeout == 0 {
		c.SweepTimeout = 10 * time.Minute
	}
	if c.AdmissionSlots == 0 {
		c.AdmissionSlots = runtime.GOMAXPROCS(0)
	}
	if c.AdmissionDepth <= 0 {
		c.AdmissionDepth = 128
	}
	if c.AdmissionBudget <= 0 {
		c.AdmissionBudget = 2 * time.Second
	}
	return c
}

// Server is the resident ER matching service: a graph store, a result
// cache and a sweep job queue behind an HTTP JSON API. Create one with
// New, mount Handler on an http.Server, and Close it on shutdown.
type Server struct {
	cfg     Config
	store   *Store
	cache   *ResultCache
	jobs    *JobQueue
	mux     *http.ServeMux
	reps    *simgraph.RepCaches // nil when disabled
	log     *durable.Log        // nil when DataDir is unset
	started time.Time

	// obs is the metrics registry behind both /metrics views; nil (with
	// Config.DisableObs) makes every handle below an inert no-op. tracer
	// mints per-request traces for GET /v1/traces and the slow-request
	// log.
	obs    *obs.Registry
	tracer *obs.Tracer

	// Request-level and generation counters and latency histograms
	// (registry-owned; cache, job and durable counters stay with their
	// owners and reach the registry through reader funcs — see initObs).
	requests      *obs.Counter
	errors        *obs.Counter
	graphsCreated *obs.Counter
	matchRequests *obs.Counter
	matchingsRun  *obs.Counter
	sweepsCreated *obs.Counter
	classReqs     *obs.CounterVec   // by status class (2xx/3xx/4xx/5xx)
	routeReqs     *obs.CounterVec   // by mux route pattern
	httpDur       *obs.Histogram    // request wall time
	matchDur      *obs.HistogramVec // one Match call, by algorithm
	sweepDur      *obs.Histogram    // one sweep job execution
	gen           genMetrics

	// repReloaded counts representation-cache entries rewarmed from the
	// durable spill at boot.
	repReloaded atomic.Int64

	// The overload-protection layer (internal/resilience): a bounded
	// two-priority admission queue over the heavy computations, plus
	// singleflight coalescing of identical in-flight matchings and
	// generations. limiter is nil when admission is disabled
	// (AdmissionSlots < 0) — the nil limiter admits everything.
	limiter      *resilience.Limiter
	matchFlights resilience.Group[CacheKey, []core.Pair]
	genFlights   resilience.Group[string, *genReply]

	// timeoutsByRoute counts requests that hit their deadline (504),
	// by mux route.
	timeoutsByRoute *obs.CounterVec

	// shedDegraded and shedBacklog count serving-layer sheds the
	// limiter never sees: mutations refused while the durable log is
	// latched failed, and sweep submissions refused at backlog
	// capacity.
	shedDegraded atomic.Int64
	shedBacklog  atomic.Int64

	// draining flips on BeginDrain: /readyz answers 503 from then on so
	// routers and load balancers stop sending traffic, while in-flight
	// and keep-alive requests keep being served until the HTTP server's
	// graceful shutdown completes. (/healthz stays liveness-only.)
	draining atomic.Bool

	// disconnects counts requests answered 499 — the client hung up
	// mid-request. Kept separate from the 4xx/5xx classes so a router
	// cancelling its hedged duplicate (which lands here) never pollutes
	// this backend's error rates or trips upstream circuit breakers.
	disconnects *obs.Counter
}

// New returns a started server (its job workers are running). The
// caller owns shutdown via Close. With Config.DataDir set, New first
// recovers the committed state from the data directory; a recovery
// error (unreadable directory, snapshot failing its checksum) refuses
// to start rather than serving a silently incomplete store.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		store:   NewStore(),
		cache:   NewResultCache(cfg.CacheSize),
		mux:     http.NewServeMux(),
		started: time.Now(),
	}
	if cfg.RepCacheDatasets > 0 {
		s.reps = simgraph.NewRepCaches(cfg.RepCacheDatasets)
	}
	if cfg.AdmissionSlots > 0 {
		s.limiter = resilience.NewLimiter(cfg.AdmissionSlots, cfg.AdmissionDepth)
	}
	s.initObs()
	if cfg.DataDir != "" {
		if err := s.openDurable(); err != nil {
			return nil, err
		}
	}
	s.jobs = NewJobQueue(cfg.JobWorkers, cfg.JobQueueDepth, cfg.JobHistory, s.runSweep)
	s.routes()
	return s, nil
}

// Handler returns the root handler: the v1 API plus /healthz and
// /metrics, wrapped with request counting, per-route/status-class
// counters, the request-duration histogram, and tracing (each request
// gets an X-Request-Id and a span trace carried in its context).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Inc()
		start := time.Now()
		// Resolve the route pattern before dispatch: the middleware sits
		// outside the mux, so r.Pattern is not yet populated here.
		route := "unmatched"
		if _, pattern := s.mux.Handler(r); pattern != "" {
			route = pattern
		}
		trace := s.tracer.Start(r.Method + " " + r.URL.Path)
		if trace != nil {
			w.Header().Set("X-Request-Id", trace.ID())
			r = r.WithContext(obs.NewContext(r.Context(), trace))
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		s.mux.ServeHTTP(rec, r)
		if rec.status >= 400 {
			s.errors.Inc()
		}
		if rec.status == 499 {
			s.disconnects.Inc()
		}
		if rec.status == http.StatusGatewayTimeout {
			s.timeoutsByRoute.With(route).Inc()
		}
		s.routeReqs.With(route).Inc()
		s.classReqs.With(statusClass(rec.status)).Inc()
		s.httpDur.Since(start)
		s.tracer.Finish(trace, rec.status)
	})
}

// statusClass buckets an HTTP status for the per-class counters.
func statusClass(code int) string {
	switch {
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}

// BeginDrain marks the server not-ready: GET /readyz answers 503 with
// reason "draining" from now on, so health-checking routers and load
// balancers take the node out of rotation while the HTTP server's
// graceful shutdown lets in-flight requests finish. Call it when the
// shutdown signal arrives, before http.Server.Shutdown (see
// cmd/erserve). Liveness (/healthz) is unaffected.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
}

// Close drains the service: no new jobs are accepted, queued and running
// sweeps are cancelled through their contexts, and the job workers are
// awaited up to ctx's deadline. The durable log, when one is attached,
// is closed last (final manifest, journal segment released) — though
// every acknowledged mutation is already on disk regardless: Close is
// about tidiness, not durability. It does not stop an http.Server
// mounted on Handler; shut that down first (see cmd/erserve).
func (s *Server) Close(ctx context.Context) error {
	err := s.jobs.Close(ctx)
	if cerr := s.log.Close(); err == nil {
		err = cerr
	}
	return err
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// normSeed mirrors ccer.Options: seed 0 means 1, the same default the
// one-shot ccer.Match applies, so cache keys and matchings line up with
// the library's serial path.
func normSeed(seed int64) int64 {
	if seed == 0 {
		return 1
	}
	return seed
}

// stopFunc adapts a context to the polling Stop hook used by the
// internal/par pool and the sweep engine.
func stopFunc(ctx context.Context) func() bool {
	if ctx == nil {
		return nil
	}
	return func() bool { return ctx.Err() != nil }
}

// withTimeout derives the per-request deadline context; d <= 0 adds no
// deadline beyond what ctx already carries.
func withTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// shedCounts merges the limiter's shed counters with the serving-layer
// reasons it never sees. Every reason is always present (zero before any
// shed), so the shed_total series exist from the first scrape.
func (s *Server) shedCounts() map[string]int64 {
	m := s.limiter.ShedCounts()
	m[resilience.ReasonDegraded] = s.shedDegraded.Load()
	m[resilience.ReasonBacklog] = s.shedBacklog.Load()
	return m
}

// coalesceHits is the total number of requests served by attaching to an
// identical in-flight computation instead of running their own.
func (s *Server) coalesceHits() int64 {
	return s.matchFlights.Hits() + s.genFlights.Hits()
}

// matchOutcome is one algorithm's matching within a batch.
type matchOutcome struct {
	Algorithm string
	Pairs     []core.Pair
	Cached    bool
	// Rendered is Pairs as the reply renders them, and Metrics are Pairs
	// scored against the graph's ground truth, both kept by the result
	// cache; on a miss Rendered is nil and the handler scores Pairs.
	Rendered []byte
	Metrics  eval.Metrics
}

// matchBatch runs the named algorithms on the stored graph at the
// threshold, serving individual matchings from the result cache where
// possible and fanning the misses over the par pool (the same shape as
// ccer.MatchConcurrent, so pairs are identical to sequential ccer.Match
// calls at the same seed). A cached matching comes with its scores
// against e.GT. Fresh matchings are inserted into the cache before
// returning.
func (s *Server) matchBatch(ctx context.Context, e *GraphEntry, algorithms []string, threshold float64, seed int64) ([]matchOutcome, error) {
	seed = normSeed(seed)
	ms, err := algo.AllByName(algorithms, seed)
	if err != nil {
		return nil, err
	}
	keyOf := func(name string) CacheKey {
		return CacheKey{Graph: e.Name, Version: e.Version, Checksum: e.Checksum,
			Algorithm: name, Threshold: threshold, Seed: seed}
	}
	out := make([]matchOutcome, len(algorithms))
	todo := make([]int, 0, len(algorithms))
	for i, name := range algorithms {
		if pairs, rendered, m, ok := s.cache.getRendered(keyOf(name), e.GT); ok {
			out[i] = matchOutcome{Algorithm: name, Pairs: pairs, Cached: true, Rendered: rendered, Metrics: m}
			continue
		}
		todo = append(todo, i)
	}
	if len(todo) > 0 {
		if ctx == nil {
			ctx = context.Background()
		}
		trace := obs.FromContext(ctx)
		errs := make([]error, len(todo))
		// Each todo index runs on exactly one worker and every matcher in
		// the module keeps its mutable state local to a Match call, so no
		// cloning is needed (the ccer.MatchConcurrent invariant). Every
		// miss goes through the singleflight group: identical concurrent
		// requests — same (graph version, algorithm, threshold, seed) —
		// share one execution, and only the flight leader occupies an
		// admission slot. Matchings are deterministic at a fixed seed,
		// which is what makes sharing byte-safe.
		par.For(len(todo), par.Workers(s.cfg.Parallelism), stopFunc(ctx), func(_, k int) {
			i := todo[k]
			name := algorithms[i]
			key := keyOf(name)
			pairs, _, err := s.matchFlights.Do(ctx, key, func(fctx context.Context) ([]core.Pair, error) {
				// fctx is the flight's context, not this request's: it
				// stays live while any coalesced caller still wants the
				// answer, so one caller timing out does not abort the
				// computation for the rest.
				if err := s.limiter.Acquire(fctx, resilience.Interactive, s.cfg.AdmissionBudget); err != nil {
					return nil, err
				}
				defer s.limiter.Release()
				if err := s.cfg.Faults.Inject(fctx, "match"); err != nil {
					return nil, err
				}
				endSpan := trace.StartSpanUnder("match", "match/"+name)
				t0 := time.Now()
				pairs := ms[i].Match(e.Graph, threshold)
				s.matchDur.With(name).Since(t0)
				endSpan()
				s.matchingsRun.Inc()
				s.cache.Put(key, pairs)
				return pairs, nil
			})
			if err != nil {
				errs[k] = err
				return
			}
			out[i] = matchOutcome{Algorithm: name, Pairs: pairs}
		})
		if err := firstComputeErr(errs); err != nil {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return out, nil
}

// firstComputeErr picks the error a partially failed batch reports: a
// shed wins (its 503 tells the client to back off and retry — the
// already-computed matchings are cached, so the retry is cheap), then
// whatever failure came first.
func firstComputeErr(errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var shed *resilience.ShedError
		if errors.As(err, &shed) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// runSweep executes one queued sweep job on the par pool; ctx cancellation
// (job cancel or server shutdown) trips the sweep's Stop hook between
// Match calls, and SweepTimeout bounds the execution the same way.
func (s *Server) runSweep(ctx context.Context, job *SweepJob) ([]eval.SweepResult, error) {
	ctx, cancel := withTimeout(ctx, s.cfg.SweepTimeout)
	defer cancel()
	e, ok := s.store.Get(job.Graph)
	if !ok {
		return nil, fmt.Errorf("graph %q no longer in store", job.Graph)
	}
	if e.Version != job.GraphVersion {
		return nil, fmt.Errorf("graph %q was replaced (version %d, job wants %d)",
			job.Graph, e.Version, job.GraphVersion)
	}
	ms, err := algo.AllByName(job.Algorithms, normSeed(job.Seed))
	if err != nil {
		return nil, err
	}
	// Sweeps are bulk-class work and wait patiently (no queue budget —
	// the backlog is already bounded by JobQueueDepth), yielding freed
	// slots to interactive match traffic.
	if err := s.limiter.Acquire(ctx, resilience.Bulk, 0); err != nil {
		return nil, err
	}
	defer s.limiter.Release()
	if err := s.cfg.Faults.Inject(ctx, "sweep"); err != nil {
		return nil, err
	}
	start := time.Now()
	results := eval.SweepAllOpts(e.Graph, e.GT, ms, eval.SweepOptions{
		Repeats:     job.Repeats,
		Parallelism: s.cfg.Parallelism,
		Stop:        stopFunc(ctx),
	})
	s.sweepDur.Since(start)
	if err := ctx.Err(); err != nil {
		// The Stop hook tripped mid-grid; partial results would be
		// indistinguishable from a finished sweep, so fail the job.
		return nil, err
	}
	return results, nil
}
