// Command erserve runs the resident Clean-Clean ER matching service: an
// HTTP JSON API over the module's matching engine with an in-memory
// graph store, an LRU result cache and an async sweep job queue, so many
// requests amortize one graph build.
//
// Usage:
//
//	erserve [-addr :8080] [-cache N] [-job-workers N] [-queue-depth N]
//	        [-job-history N] [-max-nodes N] [-parallel N]
//	        [-max-body BYTES] [-data-dir DIR] [-compact-every DURATION]
//	        [-trace-slow-ms N] [-access-log] [-trace-ring N]
//	        [-drain DURATION]
//	        [-match-timeout D] [-generate-timeout D] [-sweep-timeout D]
//	        [-admission-slots N] [-admission-depth N] [-admission-budget D]
//	        [-read-header-timeout D] [-read-timeout D] [-write-timeout D]
//	        [-idle-timeout D] [-max-header BYTES]
//
//	erserve -route URL1,URL2,... [-replicas N] [-probe-interval D]
//	        [-probe-timeout D] [-breaker-threshold N] [-breaker-cooldown D]
//	        [-hedge-after D] [-repair-interval D] [-repair-concurrency N]
//	        [-addr :8080] [-pprof]
//
// The service is overload-resilient by default: per-route deadlines
// (504 + reason "deadline" past them), a bounded two-priority admission
// queue over the heavy computations (503 + Retry-After + a machine-
// readable reason beyond its bounds; interactive match traffic wins
// freed slots over bulk generation/sweep work), and coalescing of
// identical in-flight computations. The http.Server itself carries
// header/read/write/idle timeouts, so slow-loris connections cannot pin
// goroutines forever.
//
// With -data-dir the graph store is durable: every acknowledged
// mutation commits to an fsync'd journal over content-addressed
// snapshots before the response is written, and a restart (even after
// kill -9) recovers exactly the committed graphs, verified against
// their checksums. Only graphs are kept: the representation caches live
// in memory and warm again with use, and a reps/ directory that an
// older version left in the data directory is not read and can be
// deleted.
//
// With -route the process is a cluster router instead of a node: it
// fronts the listed erserve backends as one replicated service, placing
// each graph on -replicas backends by rendezvous hashing, fanning
// writes to the replica set, reading from any healthy replica (hedging
// a duplicate after -hedge-after, or the observed p95 when unset), and
// health-checking every backend's /readyz into per-backend circuit
// breakers. An anti-entropy repair loop (paced by -repair-interval,
// kicked immediately by write fan misses and backend rejoins) converges
// diverged replicas by streaming the newest copy's edge list, and the
// backend set is live: POST/DELETE /v1/cluster/backends adds or removes
// a node, migrating only the graphs whose rendezvous replica set
// changed. GET /v1/cluster serves the live per-backend state plus the
// repair counters and per-graph divergence. -pprof mounts the same
// /debug/pprof/ routes on the router as on a node.
//
// Endpoints:
//
//	POST   /v1/graphs       upload an edge list, or generate from a
//	                        {"dataset","seed","scale"} JSON request
//	GET    /v1/graphs       list stored graphs
//	GET    /v1/graphs/{g}   graph info (?format=edgelist for the wire form)
//	DELETE /v1/graphs/{g}   drop a graph
//	POST   /v1/match        run a batch of algorithms at one threshold
//	POST   /v1/sweeps       start an async threshold sweep job
//	GET    /v1/sweeps/{id}  poll a job (DELETE cancels it)
//	GET    /v1/traces       recent request traces with stage timings
//	GET    /healthz         liveness (degraded + 503 on a latched
//	                        journal failure)
//	GET    /readyz          readiness: 503 while boot recovery replays
//	                        the journal, during graceful drain, and on a
//	                        latched journal failure
//	GET    /metrics         flat JSON counters; Prometheus text with
//	                        ?format=prometheus or Accept: text/plain
//	GET    /v1/cluster      (router mode) per-backend health, breaker
//	                        state, repair counters and divergence
//	POST   /v1/cluster/backends   (router mode) add a backend {"url":...}
//	DELETE /v1/cluster/backends   (router mode) remove a backend ?url=...
//	POST   /v1/cluster/repair     (router mode) kick an immediate scan
//
// Every request carries an X-Request-Id and a span trace; requests
// slower than -trace-slow-ms are logged as structured JSON lines with
// their per-stage timings, and -access-log logs every request.
//
// SIGINT/SIGTERM shut down gracefully: /readyz flips to 503 so load
// balancers drain the node, the listener stops, in-flight jobs are
// cancelled through their contexts, and the process waits up to -drain
// for the workers to finish.
//
// Example:
//
//	erserve -addr :8080 &
//	curl -s localhost:8080/v1/graphs -H 'Content-Type: application/json' \
//	     -d '{"name":"d2","dataset":"D2","seed":42,"scale":0.02}'
//	curl -s localhost:8080/v1/match -d '{"graph":"d2","threshold":0.5}'
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/ccer-go/ccer/internal/cluster"
	"github.com/ccer-go/ccer/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "erserve:", err)
		os.Exit(1)
	}
}

// swapHandler is an http.Handler whose target can be swapped
// atomically: the listener opens immediately with the boot handler
// installed, and the real service handler is swapped in once boot-time
// recovery finishes — so /readyz is honest (503 "starting") while the
// journal replays, instead of the port simply not existing.
type swapHandler struct {
	h atomic.Value // http.Handler
}

func newSwapHandler(h http.Handler) *swapHandler {
	sw := &swapHandler{}
	sw.h.Store(&h)
	return sw
}

func (sw *swapHandler) Set(h http.Handler) { sw.h.Store(&h) }

func (sw *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*sw.h.Load().(*http.Handler)).ServeHTTP(w, r)
}

// bootHandler answers while the store is still recovering: alive
// (/healthz 200) but not ready — /readyz and every data-plane route
// answer 503 with reason "starting" and a Retry-After, so health
// checkers keep the node out of rotation and well-behaved clients back
// off instead of timing out against a half-recovered store.
func bootHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]string{"status": "starting"})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]any{
			"error":  "recovering committed state, not ready",
			"reason": "starting",
			"ready":  false,
		})
	})
	return mux
}

func run(argv []string) error {
	fs := flag.NewFlagSet("erserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	cache := fs.Int("cache", 256, "result cache capacity in matchings (negative disables)")
	jobWorkers := fs.Int("job-workers", 2, "async sweep job workers")
	queueDepth := fs.Int("queue-depth", 64, "sweep job backlog before 503s")
	jobHistory := fs.Int("job-history", 256, "finished sweep jobs kept retrievable (oldest evicted beyond)")
	maxNodes := fs.Int("max-nodes", 1<<21, "node cap per graph, uploaded or generated (negative = uncapped)")
	parallel := fs.Int("parallel", 0, "workers inside one match batch or sweep grid (0 = all CPUs)")
	maxBody := fs.Int64("max-body", 32<<20, "request body limit in bytes")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	dataDir := fs.String("data-dir", "", "durable data directory: journal + snapshots; committed graphs survive crashes (empty = in-memory only)")
	compactEvery := fs.Duration("compact-every", 0, "background snapshot/compaction period with -data-dir (0 = 60s, negative disables)")
	traceSlowMS := fs.Int64("trace-slow-ms", 0, "log requests slower than this many milliseconds as structured JSON with stage timings (0 disables)")
	accessLog := fs.Bool("access-log", false, "log one structured JSON line per request")
	traceRing := fs.Int("trace-ring", 64, "recent request traces kept for GET /v1/traces (negative retains none)")
	drain := fs.Duration("drain", 10*time.Second, "shutdown drain timeout")
	matchTimeout := fs.Duration("match-timeout", 0, "deadline for one POST /v1/match (0 = 30s, negative disables)")
	generateTimeout := fs.Duration("generate-timeout", 0, "deadline for one POST /v1/graphs generation (0 = 2m, negative disables)")
	sweepTimeout := fs.Duration("sweep-timeout", 0, "deadline for one async sweep execution (0 = 10m, negative disables)")
	admissionSlots := fs.Int("admission-slots", 0, "concurrent heavy computations admitted (0 = GOMAXPROCS, negative disables admission control)")
	admissionDepth := fs.Int("admission-depth", 0, "admission queue depth per priority class before queue_full 503s (0 = 128)")
	admissionBudget := fs.Duration("admission-budget", 0, "longest a request waits in the admission queue before a queue_timeout 503 (0 = 2s)")
	readHeaderTimeout := fs.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout (slow-loris guard)")
	readTimeout := fs.Duration("read-timeout", time.Minute, "http.Server ReadTimeout (whole-request read deadline)")
	writeTimeout := fs.Duration("write-timeout", 5*time.Minute, "http.Server WriteTimeout (response write deadline; bounds the longest handler)")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections")
	maxHeader := fs.Int("max-header", 1<<20, "http.Server MaxHeaderBytes")
	route := fs.String("route", "", "router mode: comma-separated backend base URLs to front as one replicated cluster")
	replicas := fs.Int("replicas", 2, "(router mode) backends hosting each graph")
	probeInterval := fs.Duration("probe-interval", 0, "(router mode) /readyz probing period (0 = 250ms)")
	probeTimeout := fs.Duration("probe-timeout", 0, "(router mode) single-probe timeout (0 = 1s)")
	breakerThreshold := fs.Int("breaker-threshold", 0, "(router mode) consecutive failures that open a backend's circuit (0 = 3)")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "(router mode) open-circuit wait before the half-open trial (0 = 1s)")
	hedgeAfter := fs.Duration("hedge-after", 0, "(router mode) delay before a read is hedged to another replica (0 = adaptive p95)")
	repairInterval := fs.Duration("repair-interval", 0, "(router mode) anti-entropy scan period (0 = 2s, negative disables)")
	repairConcurrency := fs.Int("repair-concurrency", 0, "(router mode) concurrent per-graph repair streams (0 = 4)")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v; see -h", fs.Args())
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
		MaxHeaderBytes:    *maxHeader,
	}

	if *route != "" {
		rt, err := cluster.NewRouter(cluster.RouterConfig{
			Backends:          strings.Split(*route, ","),
			Replicas:          *replicas,
			ProbeInterval:     *probeInterval,
			ProbeTimeout:      *probeTimeout,
			BreakerThreshold:  *breakerThreshold,
			BreakerCooldown:   *breakerCooldown,
			HedgeAfter:        *hedgeAfter,
			RepairInterval:    *repairInterval,
			RepairConcurrency: *repairConcurrency,
		})
		if err != nil {
			return err
		}
		defer rt.Close()
		httpSrv.Handler = rt.Handler()
		if *pprofOn {
			mux := http.NewServeMux()
			serve.HandlePprof(mux)
			mux.Handle("/", httpSrv.Handler)
			httpSrv.Handler = mux
		}
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "erserve: routing on %s -> %s (replicas=%d)\n",
			ln.Addr(), *route, *replicas)
		return serveUntilSignal(httpSrv, ln, *drain, nil)
	}

	// Listen before recovering so (a) a bad -addr fails fast and (b) the
	// port answers — alive but not ready — while the journal replays.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	sw := newSwapHandler(bootHandler())
	httpSrv.Handler = sw
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	srv, err := serve.New(serve.Config{
		CacheSize:       *cache,
		JobWorkers:      *jobWorkers,
		JobQueueDepth:   *queueDepth,
		JobHistory:      *jobHistory,
		MaxGraphNodes:   *maxNodes,
		Parallelism:     *parallel,
		MaxBodyBytes:    *maxBody,
		EnablePprof:     *pprofOn,
		DataDir:         *dataDir,
		CompactEvery:    *compactEvery,
		TraceSlow:       time.Duration(*traceSlowMS) * time.Millisecond,
		AccessLog:       *accessLog,
		TraceRing:       *traceRing,
		MatchTimeout:    *matchTimeout,
		GenerateTimeout: *generateTimeout,
		SweepTimeout:    *sweepTimeout,
		AdmissionSlots:  *admissionSlots,
		AdmissionDepth:  *admissionDepth,
		AdmissionBudget: *admissionBudget,
	})
	if err != nil {
		_ = httpSrv.Close()
		<-errc
		return err
	}
	ctx, stop := shutdownSignals()
	defer stop()
	sw.Set(srv.Handler())
	fmt.Fprintf(os.Stderr, "erserve: listening on %s (cache=%d job-workers=%d parallel=%d)\n",
		ln.Addr(), *cache, *jobWorkers, *parallel)
	return waitAndDrain(ctx, stop, httpSrv, errc, *drain, srv)
}

// shutdownSignals catches SIGINT and SIGTERM. Take it before the node
// can answer ready: a signal sent after that must drain the node, not
// kill it with the default action.
func shutdownSignals() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// serveUntilSignal runs httpSrv on ln until SIGINT/SIGTERM, then drains.
func serveUntilSignal(httpSrv *http.Server, ln net.Listener, drain time.Duration, srv *serve.Server) error {
	ctx, stop := shutdownSignals()
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	return waitAndDrain(ctx, stop, httpSrv, errc, drain, srv)
}

// waitAndDrain blocks until ctx, from shutdownSignals, is done (or the
// listener dies), then gracefully drains: readiness flips first so
// health-checked load balancers stop sending traffic, in-flight requests
// finish under the drain budget, and the service closes last.
func waitAndDrain(ctx context.Context, stop context.CancelFunc, httpSrv *http.Server, errc chan error,
	drain time.Duration, srv *serve.Server) error {
	select {
	case err := <-errc:
		return err // listener died before any signal
	case <-ctx.Done():
	}
	// Release the signal handler right away: a second Ctrl-C kills the
	// process normally instead of being swallowed.
	stop()
	fmt.Fprintln(os.Stderr, "erserve: shutting down, draining...")
	if srv != nil {
		// Not-ready before not-serving: /readyz answers 503 during the
		// drain window, so routers and load balancers take this node out
		// of rotation while in-flight requests complete.
		srv.BeginDrain()
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	shutdownErr := httpSrv.Shutdown(drainCtx)
	if errors.Is(shutdownErr, context.DeadlineExceeded) {
		shutdownErr = nil // in-flight requests were cut off at the deadline
	}
	if srv != nil {
		if err := srv.Close(drainCtx); err != nil {
			return err
		}
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "erserve: bye")
	return shutdownErr
}
