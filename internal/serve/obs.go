package serve

import (
	"time"

	"github.com/ccer-go/ccer/internal/obs"
	"github.com/ccer-go/ccer/internal/simgraph"
)

// initObs builds the metrics registry and request tracer. The registry
// is the only source of both /metrics views (see metricsJSON):
// registry-owned instruments for the request path and generation,
// reader funcs for the counters that live with their owners (result
// cache, job queue, representation caches, durable log). The reader
// funcs capture s and read lazily at scrape time, so registration order
// against field initialization does not matter — every field is set
// before New returns.
//
// With Config.DisableObs the registry and tracer stay nil and every
// handle below is an inert no-op (the obs package's nil-receiver
// contract), which is the baseline side of the instrumentation-overhead
// benchmarks.
func (s *Server) initObs() {
	if s.cfg.DisableObs {
		return
	}
	r := obs.NewRegistry()
	s.obs = r

	s.requests = r.Counter("ccer_requests_total", "HTTP requests received.")
	s.errors = r.Counter("ccer_errors_total", "HTTP responses with status >= 400.")
	s.graphsCreated = r.Counter("ccer_graphs_created_total", "Graphs committed to the store.")
	s.matchRequests = r.Counter("ccer_match_requests_total", "POST /v1/match requests.")
	s.matchingsRun = r.Counter("ccer_matchings_run_total", "Matchings executed (cache misses).")
	s.sweepsCreated = r.Counter("ccer_sweeps_created_total", "Sweep jobs accepted.")
	s.classReqs = r.CounterVec("ccer_http_requests_by_class_total",
		"HTTP responses by status class.", "class")
	s.routeReqs = r.CounterVec("ccer_http_requests_by_route_total",
		"HTTP requests by mux route pattern.", "route")
	s.httpDur = r.Histogram("ccer_http_request_seconds", "HTTP request wall time.")
	s.matchDur = r.HistogramVec("ccer_match_seconds",
		"Latency of one matching run, by algorithm.", "algorithm")
	s.sweepDur = r.Histogram("ccer_sweep_seconds", "Latency of one sweep job execution.")
	s.timeoutsByRoute = r.CounterVec("ccer_request_timeout_total",
		"Requests that exceeded their deadline (HTTP 504), by route.", "route")
	s.disconnects = r.Counter("ccer_client_disconnects_total",
		"Requests answered 499: the client disconnected mid-request. Not a server error class.")

	r.GaugeFunc("ccer_admission_queue_depth", "Requests waiting in the admission queue.",
		func() float64 { return float64(s.limiter.Depth()) })
	r.GaugeFunc("ccer_admission_inflight", "Admission slots currently held.",
		func() float64 { return float64(s.limiter.InUse()) })
	r.CounterFunc("ccer_admitted_total", "Computations granted an admission slot.",
		func() int64 { return s.limiter.Admitted() })
	r.LabeledCounterFunc("ccer_shed_total",
		"Requests shed by the overload-protection layer, by machine-readable reason.", "reason",
		func() map[string]int64 { return s.shedCounts() })
	r.CounterFunc("ccer_coalesce_hits_total",
		"Requests served by attaching to an identical in-flight computation.",
		func() int64 { return s.coalesceHits() })

	r.GaugeFunc("ccer_uptime_seconds", "Seconds since the server started.",
		func() float64 { return r.Uptime().Seconds() })
	r.GaugeFunc("ccer_graphs_stored", "Graphs currently in the store.",
		func() float64 { return float64(s.store.Len()) })
	r.LabeledGaugeFunc("ccer_graph_resident_bytes",
		"Resident bytes of the stored graphs, by component: V1 rows, and V2 rows and pair lookups once built.",
		"component", func() map[string]int64 {
			b := s.store.ResidentBytes()
			return map[string]int64{"v1_rows": b.V1, "v2_rows": b.V2, "pair_weights": b.PairWeights}
		})

	r.CounterFunc("ccer_cache_hits_total", "Match result cache hits.", func() int64 {
		hits, _, _ := s.cache.Stats()
		return hits
	})
	r.CounterFunc("ccer_cache_misses_total", "Match result cache misses.", func() int64 {
		_, misses, _ := s.cache.Stats()
		return misses
	})
	r.CounterFunc("ccer_cache_evictions_total", "Match result cache evictions.", func() int64 {
		_, _, evictions := s.cache.Stats()
		return evictions
	})
	r.GaugeFunc("ccer_cache_size", "Match result cache entries.",
		func() float64 { return float64(s.cache.Len()) })
	r.GaugeFunc("ccer_cache_capacity", "Match result cache capacity.",
		func() float64 { return float64(s.cache.Capacity()) })

	r.GaugeFunc("ccer_jobs_queued", "Sweep jobs waiting to run.",
		func() float64 { return float64(s.jobs.Counts().Queued) })
	r.GaugeFunc("ccer_jobs_running", "Sweep jobs currently executing.",
		func() float64 { return float64(s.jobs.Counts().Running) })
	r.CounterFunc("ccer_jobs_done_total", "Sweep jobs finished successfully.",
		func() int64 { return int64(s.jobs.Counts().Done) })
	r.CounterFunc("ccer_jobs_failed_total", "Sweep jobs finished with an error.",
		func() int64 { return int64(s.jobs.Counts().Failed) })
	r.CounterFunc("ccer_jobs_cancelled_total", "Sweep jobs cancelled.",
		func() int64 { return int64(s.jobs.Counts().Cancelled) })

	r.CounterFunc("ccer_repcache_hits_total", "Representation cache hits.",
		func() int64 { return s.reps.Stats().Hits })
	r.CounterFunc("ccer_repcache_misses_total", "Representation cache misses.",
		func() int64 { return s.reps.Stats().Misses })
	r.CounterFunc("ccer_repcache_evictions_total", "Representation cache evictions.",
		func() int64 { return s.reps.Stats().Evictions })
	r.GaugeFunc("ccer_repcache_entries", "Representation cache resident entries.",
		func() float64 { return float64(s.reps.Stats().Entries) })

	r.CounterFunc("ccer_journal_records_total", "Journal records replayed at boot plus appended since.",
		func() int64 { return s.log.Metrics().JournalRecordsTotal })
	r.GaugeFunc("ccer_recovery_seconds", "Wall time of the boot-time recovery.",
		func() float64 { return float64(s.log.Metrics().RecoveryNS) / 1e9 })
	r.GaugeFunc("ccer_snapshot_bytes", "On-disk size of the committed snapshot state.",
		func() float64 { return float64(s.log.Metrics().SnapshotBytes) })
	r.CounterFunc("ccer_compactions_total", "Durable-store manifest rewrites.",
		func() int64 { return s.log.Metrics().CompactionsTotal })

	s.gen = genMetrics{
		dur: r.HistogramVec("ccer_generate_seconds",
			"Latency of one similarity-graph generation, by weight family.", "family"),
		ns: r.CounterVec("ccer_generate_ns_total",
			"Cumulative similarity-graph generation nanoseconds, by weight family.", "family"),
		count: r.CounterVec("ccer_generates_total",
			"Similarity-graph generations, by weight family.", "family"),
		datasetNS: r.CounterVec("ccer_generate_dataset_ns_total",
			"Cumulative similarity-graph generation nanoseconds, by dataset.", "dataset"),
		datasetCount: r.CounterVec("ccer_generate_dataset_total",
			"Similarity-graph generations, by dataset.", "dataset"),
		visited: r.CounterVec("ccer_generate_pairs_visited_total",
			"Kernel blocks computed during generation, by weight family.", "family"),
		skipped: r.CounterVec("ccer_generate_pairs_skipped_total",
			"Kernel blocks provably skipped by the lossless filters, by weight family.", "family"),
	}

	tracer := obs.NewTracer(s.cfg.TraceRing)
	tracer.SlowThreshold = s.cfg.TraceSlow
	tracer.AccessLog = s.cfg.AccessLog
	tracer.Out = s.cfg.ObsLog
	s.tracer = tracer
}

// genMetrics records similarity-graph generation per weight family
// (SB-SYN / SA-SYN / SB-SEM / SA-SEM) and per dataset, with the
// candidate-filter counters (kernel blocks computed vs. provably
// skipped by the lossless zero-score filters), so the corpus-build fast
// path and its pruning are observable on a resident service.
type genMetrics struct {
	dur                     *obs.HistogramVec
	ns, count               *obs.CounterVec // by family
	datasetNS, datasetCount *obs.CounterVec
	visited, skipped        *obs.CounterVec // by family
}

// record adds one generation of dataset's graphs under family.
func (g genMetrics) record(dataset, family string, d time.Duration, fs simgraph.FamilyStats) {
	g.dur.With(family).Observe(d)
	g.ns.With(family).Add(int64(d))
	g.count.With(family).Inc()
	g.datasetNS.With(dataset).Add(int64(d))
	g.datasetCount.With(dataset).Inc()
	g.visited.With(family).Add(fs.Visited)
	g.skipped.With(family).Add(fs.Skipped)
}

// jsonKeys renames the registry families whose JSON /metrics key
// predates the registry (keys are family names without "ccer_").
var jsonKeys = map[string]string{
	"jobs_done_total":              "jobs_done",
	"jobs_failed_total":            "jobs_failed",
	"jobs_cancelled_total":         "jobs_cancelled",
	"generate_ns_total":            "generate_family_ns_total",
	"generates_total":              "generates_family_total",
	"generate_dataset_ns_total":    "generate_ns_total",
	"generate_dataset_total":       "generates_total",
	"http_requests_by_class_total": "requests_by_class_total",
}

// metricsJSON is the JSON /metrics view: every counter and gauge family
// of the registry, plus the keys computed from them.
func (s *Server) metricsJSON() map[string]any {
	m := map[string]any{}
	for k, v := range s.obs.Values("ccer_") {
		if renamed, ok := jsonKeys[k]; ok {
			k = renamed
		}
		m[k] = v
	}
	hits, misses, _ := s.cache.Stats()
	m["cache_hit_rate"] = ratio(hits, hits+misses)
	m["jobs_live"] = s.jobs.Counts().Live()
	var visited, skipped int64
	for _, v := range s.gen.visited.Snapshot() {
		visited += v
	}
	for _, v := range s.gen.skipped.Snapshot() {
		skipped += v
	}
	m["generate_skip_ratio"] = ratio(skipped, visited+skipped)
	m["recovery_ns"] = s.log.Metrics().RecoveryNS
	hs := s.httpDur.Snapshot() // Quantile reads 0 before the first request
	m["http_request_p50_ms"] = float64(hs.Quantile(0.50)) / 1e6
	m["http_request_p95_ms"] = float64(hs.Quantile(0.95)) / 1e6
	m["http_request_p99_ms"] = float64(hs.Quantile(0.99)) / 1e6
	return m
}

// ratio is part/whole, or 0 when whole is 0.
func ratio(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// uptimeSeconds is /healthz's uptime: the registry's clock, which
// ccer_uptime_seconds reads, when observability is on; the server's
// otherwise.
func (s *Server) uptimeSeconds() float64 {
	if s.obs != nil {
		return s.obs.Uptime().Seconds()
	}
	return time.Since(s.started).Seconds()
}
