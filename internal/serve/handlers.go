package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/ccer-go/ccer/internal/algo"
	"github.com/ccer-go/ccer/internal/core"
	"github.com/ccer-go/ccer/internal/datagen"
	"github.com/ccer-go/ccer/internal/eval"
	"github.com/ccer-go/ccer/internal/graph"
	"github.com/ccer-go/ccer/internal/obs"
	"github.com/ccer-go/ccer/internal/par"
	"github.com/ccer-go/ccer/internal/resilience"
	"github.com/ccer-go/ccer/internal/simgraph"
)

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/traces", s.handleTraces)
	if s.cfg.EnablePprof {
		HandlePprof(s.mux)
	}
	s.mux.HandleFunc("POST /v1/graphs", s.handleGraphCreate)
	s.mux.HandleFunc("GET /v1/graphs", s.handleGraphList)
	// {name...} (not {name}): family-mode generation stores graphs
	// under "<base>/<attr>/<measure>", so names span path segments.
	s.mux.HandleFunc("GET /v1/graphs/{name...}", s.handleGraphGet)
	s.mux.HandleFunc("DELETE /v1/graphs/{name...}", s.handleGraphDelete)
	s.mux.HandleFunc("POST /v1/match", s.handleMatch)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweepCreate)
	s.mux.HandleFunc("GET /v1/sweeps", s.handleSweepList)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepGet)
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleSweepCancel)
}

// HandlePprof mounts the net/http/pprof endpoints under /debug/pprof/
// on mux: a node's routes with EnablePprof, and erserve's router mode
// with -pprof.
func HandlePprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // header is out; nothing useful left to do on error
}

// errorReply is the structured error schema every non-2xx JSON response
// follows: error is the human-readable message; reason, when present, is
// the machine-readable vocabulary clients and load balancers branch on —
// "queue_full", "queue_timeout", "sweep_backlog", "degraded" (all 503,
// with a Retry-After header), "deadline" (504), "shutting_down" (503).
type errorReply struct {
	Error  string `json:"error"`
	Reason string `json:"reason,omitempty"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorReply{Error: fmt.Sprintf(format, args...)})
}

// writeReason writes the structured error with a machine-readable reason.
func writeReason(w http.ResponseWriter, status int, reason, format string, args ...any) {
	writeJSON(w, status, errorReply{Error: fmt.Sprintf(format, args...), Reason: reason})
}

// writeShed is every 503 load-shedding response: a Retry-After header
// (whole seconds, at least 1) plus the machine-readable reason, so
// well-behaved clients back off instead of hammering an overloaded
// server.
func writeShed(w http.ResponseWriter, reason string, retryAfter time.Duration, format string, args ...any) {
	secs := int(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeReason(w, http.StatusServiceUnavailable, reason, format, args...)
}

// writeComputeError maps an error out of the resilient compute path
// (matchBatch, a generation flight) onto the response schema: a shed
// becomes 503 with Retry-After, our own deadline 504, the client hanging
// up 499, and anything else — a bad algorithm name, an unknown dataset —
// stays 400. ctx is the deadline-bearing child of the request context.
func (s *Server) writeComputeError(w http.ResponseWriter, r *http.Request, ctx context.Context, err error) {
	var shed *resilience.ShedError
	switch {
	case errors.As(err, &shed):
		writeShed(w, shed.Reason, shed.RetryAfter, "%v", err)
	case r.Context().Err() != nil:
		writeError(w, 499, "%v", err) // client closed request
	case ctx.Err() != nil:
		writeReason(w, http.StatusGatewayTimeout, "deadline", "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

// rejectIfDegraded fast-fails a mutation while the durable log is
// latched failed: the write cannot commit, so shed it up front instead
// of paying for a generation whose commit must be refused. Reads and
// cached matches keep serving throughout.
func (s *Server) rejectIfDegraded(w http.ResponseWriter) bool {
	err := s.log.Err()
	if err == nil {
		return false
	}
	s.shedDegraded.Add(1)
	writeShed(w, resilience.ReasonDegraded, 10*time.Second, "durable log failed, mutations refused: %v", err)
	return true
}

// decodeJSON strictly parses the request body into v: unknown fields
// and anything but white space after the value are rejected.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{
		"status":         "ok",
		"uptime_seconds": s.uptimeSeconds(),
	}
	status := http.StatusOK
	// A latched journal failure means every mutation is being refused
	// (reads still work); report degraded so orchestrators restart the
	// process, which rolls a fresh segment.
	if err := s.log.Err(); err != nil {
		resp["status"] = "degraded"
		resp["error"] = err.Error()
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// handleReadyz is the readiness probe, distinct from /healthz liveness:
// it answers 503 whenever the process should not receive new traffic —
// during graceful drain (BeginDrain flipped, connections finishing) and
// while the durable log is latched failed — but the process itself is
// alive and /healthz semantics are unchanged. Routers and load
// balancers poll this endpoint to take a backend out of rotation
// without killing it. Boot-time readiness (journal replay) is handled
// one layer up: cmd/erserve listens before constructing the Server and
// answers 503 from a stub until recovery completes, because this
// handler cannot exist before the Server does.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "draining",
			"ready":  false,
		})
		return
	}
	if err := s.log.Err(); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "degraded",
			"ready":  false,
			"error":  err.Error(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ready",
		"ready":  true,
	})
}

// handleTraces serves the tracer's bounded ring of recent request
// traces, most recent first, each with its per-stage span timings.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	views := s.tracer.Recent()
	if views == nil {
		views = []obs.TraceView{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"traces": views})
}

// handleMetrics serves the registry's two views: the Prometheus
// exposition or the flat JSON of metricsJSON, as obs.WantsPrometheus
// negotiates. With observability disabled there is nothing to render.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.obs == nil {
		writeError(w, http.StatusNotFound, "metrics registry disabled")
		return
	}
	if obs.WantsPrometheus(r) {
		w.Header().Set("Content-Type", obs.ContentType)
		_ = s.obs.WritePrometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, s.metricsJSON())
}

// graphInfo is the JSON view of a stored graph.
type graphInfo struct {
	Name           string    `json:"name"`
	Version        int64     `json:"version"`
	Checksum       string    `json:"checksum"`
	N1             int       `json:"n1"`
	N2             int       `json:"n2"`
	Edges          int       `json:"edges"`
	Density        float64   `json:"density"`
	HasGroundTruth bool      `json:"has_ground_truth"`
	Source         string    `json:"source"`
	Dataset        string    `json:"dataset,omitempty"`
	Seed           int64     `json:"seed,omitempty"`
	Scale          float64   `json:"scale,omitempty"`
	Created        time.Time `json:"created"`
}

func infoOf(e *GraphEntry) graphInfo {
	return graphInfo{
		Name:           e.Name,
		Version:        e.Version,
		Checksum:       fmt.Sprintf("%016x", e.Checksum),
		N1:             e.Graph.N1(),
		N2:             e.Graph.N2(),
		Edges:          e.Graph.NumEdges(),
		Density:        e.Graph.Density(),
		HasGroundTruth: e.GT != nil && e.GT.Len() > 0,
		Source:         e.Source,
		Dataset:        e.Dataset,
		Seed:           e.Seed,
		Scale:          e.Scale,
		Created:        e.Created,
	}
}

// generateRequest asks the server to generate a similarity graph from a
// synthetic dataset analog, the JSON mode of POST /v1/graphs.
type generateRequest struct {
	// Name keys the graph in the store; empty means auto-assigned.
	Name string `json:"name"`
	// Dataset is one of the paper's analogs, "D1".."D10".
	Dataset string `json:"dataset"`
	// Seed drives dataset generation; 0 means 1.
	Seed int64 `json:"seed"`
	// Scale is the dataset size relative to the paper's Table 2 sizes;
	// 0 means 0.02 (the erbench default).
	Scale float64 `json:"scale"`
	// Measure is the string similarity measure; "" means "Jaccard".
	// Mutually exclusive with Family.
	Measure string `json:"measure"`
	// Family, when set (one of "SB-SYN", "SA-SYN", "SB-SEM", "SA-SEM"),
	// generates the ENTIRE weight family of the paper's taxonomy via
	// the similarity-graph corpus kernels and stores every graph under
	// "<name>/<function>". The response lists all stored graphs.
	Family string `json:"family"`
	// Attrs are the attributes compared (schema-based similarity);
	// empty means the dataset's key attributes.
	Attrs []string `json:"attrs"`
	// MinSim drops edges with similarity <= MinSim before min-max
	// normalization; 0 keeps every positive-similarity pair. Ignored in
	// family mode (the corpus kernels keep every positive pair).
	MinSim float64 `json:"min_sim"`
}

func (s *Server) handleGraphCreate(w http.ResponseWriter, r *http.Request) {
	if s.rejectIfDegraded(w) {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/json") {
		var req generateRequest
		if err := decodeJSON(r, &req); err != nil {
			writeError(w, http.StatusBadRequest, "bad generate request: %v", err)
			return
		}
		s.serveGenerate(w, r, req)
		return
	}
	// Anything else is the graph.WriteEdgeList wire format. Uploads are
	// parse-bound, not compute-bound, so they skip the admission queue
	// and coalescing.
	g, err := graph.ReadEdgeListMax(r.Body, s.cfg.MaxGraphNodes)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad edge list: %v", err)
		return
	}
	if sv := r.URL.Query().Get("sync_version"); sv != "" {
		s.serveSyncUpload(w, r, g, sv)
		return
	}
	entry, err := s.store.Put(&GraphEntry{
		Name:     r.URL.Query().Get("name"),
		Graph:    g,
		Checksum: g.Checksum(),
		Source:   "upload",
	})
	if err != nil {
		// The graph did not commit; acknowledging it would promise a
		// durability the restart cannot honor.
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.graphsCreated.Inc()
	writeJSON(w, http.StatusCreated, infoOf(entry))
}

// serveSyncUpload is the replica-sync mode of the edge-list upload
// (?name=X&sync_version=V): the anti-entropy ingest path. The graph is
// stored at exactly version V via Store.SyncPut — conditional, so a
// duplicate or stale sync is a 200 no-op ("applied": false) instead of a
// conflicting write, which makes repair streams idempotent and safe to
// retry. 201 with the stored info means the sync applied.
func (s *Server) serveSyncUpload(w http.ResponseWriter, r *http.Request, g *graph.Bipartite, sv string) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, "sync_version requires an explicit name")
		return
	}
	version, err := strconv.ParseInt(sv, 10, 64)
	if err != nil || version < 1 {
		writeError(w, http.StatusBadRequest, "bad sync_version %q", sv)
		return
	}
	entry, applied, err := s.store.SyncPut(&GraphEntry{
		Name:     name,
		Graph:    g,
		Checksum: g.Checksum(),
		Source:   "repair",
	}, version)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if !applied {
		resp := map[string]any{"applied": false, "name": name}
		if entry != nil {
			resp["version"] = entry.Version
			resp["checksum"] = fmt.Sprintf("%016x", entry.Checksum)
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	s.graphsCreated.Inc()
	writeJSON(w, http.StatusCreated, infoOf(entry))
}

// genReply is a fully rendered generation response — status plus body —
// the unit the generation singleflight shares: coalesced callers replay
// the leader's exact bytes, so a coalesced response is byte-identical to
// having run the (deterministic) generation yourself.
type genReply struct {
	status int
	body   []byte
}

// renderJSON renders v exactly as writeJSON would, into a shareable
// reply.
func renderJSON(status int, v any) *genReply {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	return &genReply{status: status, body: buf.Bytes()}
}

func (rp *genReply) write(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(rp.status)
	_, _ = w.Write(rp.body)
}

// serveGenerate executes the JSON mode of POST /v1/graphs under the
// resilience layer: a generation deadline, an admission slot in the bulk
// class, and singleflight coalescing — identical concurrent requests
// (same name, dataset, seed, scale, and measure or family) share one
// generation and receive byte-identical replies. The flight's context
// outlives any single caller, so one client timing out does not abort
// the generation for the rest; when every caller is gone, it is
// cancelled.
func (s *Server) serveGenerate(w http.ResponseWriter, r *http.Request, req generateRequest) {
	// Normalize the defaulted fields before keying, so requests that
	// differ only in spelling the default (seed 0 vs 1, scale 0 vs 0.02)
	// coalesce onto the same flight.
	req.Seed = normSeed(req.Seed)
	if req.Scale == 0 {
		req.Scale = 0.02
	}
	if req.Family == "" && req.Measure == "" {
		req.Measure = "Jaccard"
	}
	key := strings.Join([]string{
		req.Name, req.Dataset, strconv.FormatInt(req.Seed, 10),
		strconv.FormatFloat(req.Scale, 'g', -1, 64), req.Measure, req.Family,
		strconv.FormatFloat(req.MinSim, 'g', -1, 64), strings.Join(req.Attrs, "\x1f"),
	}, "\x1e")

	ctx, cancel := withTimeout(r.Context(), s.cfg.GenerateTimeout)
	defer cancel()
	trace := obs.FromContext(r.Context())
	reply, _, err := s.genFlights.Do(ctx, key, func(fctx context.Context) (*genReply, error) {
		if err := s.limiter.Acquire(fctx, resilience.Bulk, s.cfg.AdmissionBudget); err != nil {
			return nil, err
		}
		defer s.limiter.Release()
		if err := s.cfg.Faults.Inject(fctx, "generate"); err != nil {
			return nil, err
		}
		if req.Family != "" {
			return s.generateFamilyReply(fctx, trace, req)
		}
		return s.generateMeasureReply(fctx, trace, req)
	})
	if err != nil {
		s.writeComputeError(w, r, ctx, err)
		return
	}
	reply.write(w)
}

// generateMeasureReply runs single-measure generation and renders the
// reply the flight shares. Business errors (unknown measure, scale over
// the cap) are rendered replies — shared with coalesced callers like any
// other result — while cancellation surfaces as an error.
func (s *Server) generateMeasureReply(ctx context.Context, trace *obs.Trace, req generateRequest) (*genReply, error) {
	spec, attrs, err := s.generateTarget(req, simgraph.CheckMeasure(req.Measure))
	if err != nil {
		return renderJSON(http.StatusBadRequest, errorReply{Error: err.Error()}), nil
	}
	endGen := trace.StartSpan("generate/" + string(simgraph.SBSyn))
	start := time.Now()
	task := spec.Generate(req.Seed, req.Scale)
	g, fs, err := simgraph.MeasureGraph(ctx, task.V1.AttrTexts(attrs...), task.V2.AttrTexts(attrs...),
		req.Measure, req.MinSim, s.cfg.Parallelism)
	endGen()
	if err != nil {
		return nil, err // the measure is valid, so only cancellation is left
	}
	// Every single-measure string similarity is a schema-based
	// syntactic weight, the paper's SB-SYN family; its filter counters
	// feed the same skip-ratio metrics as family mode.
	elapsed := time.Since(start)
	s.gen.record(spec.ID, string(simgraph.SBSyn), elapsed, fs)
	entry, err := s.store.Put(&GraphEntry{
		Name:     req.Name,
		Graph:    g,
		GT:       task.GT,
		Checksum: g.Checksum(),
		Source:   "generate",
		Dataset:  spec.ID,
		Seed:     req.Seed,
		Scale:    req.Scale,
	})
	if err != nil {
		// The graph did not commit; acknowledging it would promise a
		// durability the restart cannot honor.
		return renderJSON(http.StatusInternalServerError, errorReply{Error: err.Error()}), nil
	}
	s.graphsCreated.Inc()
	return renderJSON(http.StatusCreated, infoOf(entry)), nil
}

// generateTarget is the step both generation modes share: it resolves
// the dataset spec, rejects a negative scale, and enforces the node cap
// on the predicted sizes, before anything is generated. modeErr is the
// mode's own validation result, reported between the scale and the cap
// checks. attrs are the request's attributes, or the dataset's key
// attributes.
func (s *Server) generateTarget(req generateRequest, modeErr error) (spec datagen.Spec, attrs []string, err error) {
	spec, err = datagen.SpecByID(req.Dataset)
	if err != nil {
		return spec, nil, err
	}
	if req.Scale < 0 {
		return spec, nil, fmt.Errorf("negative scale %g", req.Scale)
	}
	if modeErr != nil {
		return spec, nil, modeErr
	}
	if n1, n2 := spec.ScaledSizes(req.Scale); s.cfg.MaxGraphNodes > 0 && n1+n2 > s.cfg.MaxGraphNodes {
		return spec, nil, fmt.Errorf("scale %g yields %d entities, above the cap of %d",
			req.Scale, n1+n2, s.cfg.MaxGraphNodes)
	}
	attrs = req.Attrs
	if len(attrs) == 0 {
		attrs = spec.KeyAttrs
	}
	return spec, attrs, nil
}

// generateFamilyReply is the family mode of POST /v1/graphs: one
// synthetic task, every similarity graph of one weight family via the
// corpus generation kernels (internal/simgraph), each stored as a
// versioned entry with the task's ground truth attached — so the full
// taxonomy-driven workload of the paper can be served and matched
// without leaving the service. Generation time is recorded under the
// family, which is where the bit-parallel kernel win shows on /metrics.
func (s *Server) generateFamilyReply(ctx context.Context, trace *obs.Trace, req generateRequest) (*genReply, error) {
	if req.Measure != "" {
		return renderJSON(http.StatusBadRequest,
			errorReply{Error: "measure and family are mutually exclusive"}), nil
	}
	var family simgraph.Family
	for _, f := range simgraph.Families() {
		if string(f) == req.Family {
			family = f
		}
	}
	if family == "" {
		return renderJSON(http.StatusBadRequest, errorReply{
			Error: fmt.Sprintf("unknown family %q; have %v", req.Family, simgraph.Families())}), nil
	}
	spec, attrs, err := s.generateTarget(req, nil)
	if err != nil {
		return renderJSON(http.StatusBadRequest, errorReply{Error: err.Error()}), nil
	}
	seed, scale := req.Seed, req.Scale
	base := req.Name
	if base == "" {
		base = spec.ID + "-" + string(family)
	}

	endTask := trace.StartSpan("dataset/" + spec.ID)
	task := spec.Generate(seed, scale)
	endTask()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	graphs, genStats := simgraph.GenerateStats(task, attrs, simgraph.Options{
		Families:          []simgraph.Family{family},
		KeepNoMatchGraphs: true,
		Parallelism:       s.cfg.Parallelism,
		Caches:            s.reps,
		Trace:             trace,
	})
	// The family kernels have no mid-grid stop hook; the deadline is
	// honored between stages, and an abandoned flight stops here rather
	// than committing graphs nobody asked to keep waiting for.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	fs := genStats.Of(family)
	elapsed := time.Since(start)
	s.gen.record(spec.ID, string(family), elapsed, fs)

	// Checksumming is pure per graph; only the commits below are ordered.
	sums := make([]uint64, len(graphs))
	par.For(len(graphs), par.Workers(s.cfg.Parallelism), nil, func(_, i int) {
		sums[i] = graphs[i].G.Checksum()
	})
	infos := make([]graphInfo, 0, len(graphs))
	for i, sg := range graphs {
		e, err := s.store.Put(&GraphEntry{
			Name:     base + "/" + sg.Name,
			Graph:    sg.G,
			GT:       task.GT,
			Checksum: sums[i],
			Source:   "generate",
			Dataset:  spec.ID,
			Seed:     seed,
			Scale:    scale,
		})
		if err != nil {
			// Earlier graphs of the family committed and stay visible;
			// this one (and, with a sticky journal failure, the rest)
			// did not. Report what is actually durable.
			return renderJSON(http.StatusInternalServerError, errorReply{Error: fmt.Sprintf(
				"stored %d of %d family graphs: %v", len(infos), len(graphs), err)}), nil
		}
		infos = append(infos, infoOf(e))
	}
	s.graphsCreated.Add(int64(len(infos)))
	return renderJSON(http.StatusCreated, map[string]any{"family": string(family), "graphs": infos}), nil
}

// syncInfo is the cheap per-name sync view of ?fields=sync: just the
// replica-comparison key (version + checksum), no graph stats — computing
// infoOf's density/edge counts for every entry on every anti-entropy scan
// would make the scan's cost scale with graph size instead of graph count.
type syncInfo struct {
	Name     string `json:"name"`
	Version  int64  `json:"version"`
	Checksum string `json:"checksum,omitempty"`
}

func (s *Server) handleGraphList(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("fields") == "sync" {
		entries := s.store.List()
		graphs := make([]syncInfo, len(entries))
		for i, e := range entries {
			graphs[i] = syncInfo{Name: e.Name, Version: e.Version, Checksum: fmt.Sprintf("%016x", e.Checksum)}
		}
		dead := s.store.Tombstones()
		tombs := make([]syncInfo, 0, len(dead))
		for name, v := range dead {
			tombs = append(tombs, syncInfo{Name: name, Version: v})
		}
		sort.Slice(tombs, func(i, j int) bool { return tombs[i].Name < tombs[j].Name })
		writeJSON(w, http.StatusOK, map[string]any{"graphs": graphs, "tombstones": tombs})
		return
	}
	entries := s.store.List()
	infos := make([]graphInfo, len(entries))
	for i, e := range entries {
		infos[i] = infoOf(e)
	}
	writeJSON(w, http.StatusOK, map[string]any{"graphs": infos})
}

func (s *Server) handleGraphGet(w http.ResponseWriter, r *http.Request) {
	e, ok := s.store.Get(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "no graph %q", r.PathValue("name"))
		return
	}
	if r.URL.Query().Get("format") == "edgelist" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := e.Graph.WriteEdgeList(w); err != nil {
			// Headers are gone; the broken connection is the signal.
			return
		}
		return
	}
	writeJSON(w, http.StatusOK, infoOf(e))
}

func (s *Server) handleGraphDelete(w http.ResponseWriter, r *http.Request) {
	if s.rejectIfDegraded(w) {
		return
	}
	name := r.PathValue("name")
	if sv := r.URL.Query().Get("sync_version"); sv != "" {
		// Replica-sync delete: propagate a peer's tombstone at its
		// version. Conditional like the sync upload — never 404s, since
		// "already gone" is sync success, not an error.
		version, perr := strconv.ParseInt(sv, 10, 64)
		if perr != nil || version < 1 {
			writeError(w, http.StatusBadRequest, "bad sync_version %q", sv)
			return
		}
		changed, serr := s.store.SyncDelete(name, version)
		if serr != nil {
			writeError(w, http.StatusInternalServerError, "%v", serr)
			return
		}
		if changed {
			s.cache.InvalidateGraph(name)
		}
		writeJSON(w, http.StatusOK, map[string]any{"applied": changed, "name": name})
		return
	}
	existed, err := s.store.Delete(name)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if !existed {
		writeError(w, http.StatusNotFound, "no graph %q", name)
		return
	}
	// Eagerly drop the dead versions' cached matchings; their keys can
	// never hit again, so without this they pin capacity until LRU
	// pressure reaches them.
	s.cache.InvalidateGraph(name)
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

// matchRequest is the body of POST /v1/match.
type matchRequest struct {
	// Graph names a stored graph.
	Graph string `json:"graph"`
	// Algorithms lists matcher names; empty means the paper's eight.
	Algorithms []string `json:"algorithms"`
	// Threshold is the similarity threshold (edges with weight > t are
	// kept); absent means 0.5.
	Threshold *float64 `json:"threshold"`
	// Seed configures the stochastic BAH/QLM matchers; 0 means 1,
	// matching ccer.Match.
	Seed int64 `json:"seed"`
}

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req matchRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad match request: %v", err)
		return
	}
	e, ok := s.store.Get(req.Graph)
	if !ok {
		writeError(w, http.StatusNotFound, "no graph %q", req.Graph)
		return
	}
	threshold := 0.5
	if req.Threshold != nil {
		threshold = *req.Threshold
	}
	if threshold < 0 || threshold >= 1 {
		writeError(w, http.StatusBadRequest, "threshold %g outside [0,1)", threshold)
		return
	}
	algorithms := req.Algorithms
	if len(algorithms) == 0 {
		algorithms = core.Names()
	}
	s.matchRequests.Inc()
	ctx, cancel := withTimeout(r.Context(), s.cfg.MatchTimeout)
	defer cancel()
	endMatch := obs.FromContext(r.Context()).StartSpan("match")
	outcomes, err := s.matchBatch(ctx, e, algorithms, threshold, req.Seed)
	endMatch()
	if err != nil {
		s.writeComputeError(w, r, ctx, err)
		return
	}
	reply := matchReply{graph: e.Name, version: e.Version, threshold: threshold,
		seed: normSeed(req.Seed), results: outcomes, scored: e.GT != nil && e.GT.Len() > 0}
	if reply.scored {
		// A cached result comes scored; score only the fresh ones.
		for i, o := range outcomes {
			if !o.Cached {
				outcomes[i].Metrics = eval.Evaluate(o.Pairs, e.GT)
			}
		}
	}
	buf, _ := replyBufs.Get().(*[]byte)
	if buf == nil {
		buf = new([]byte)
	}
	if n := reply.maxLen(); cap(*buf) < n {
		*buf = make([]byte, 0, n)
	}
	body := reply.appendTo((*buf)[:0])
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // header is out; nothing useful left to do on error
	// net/http keeps no reference to body once Write returns.
	if cap(body) <= maxPooledReply {
		*buf = body
		replyBufs.Put(buf)
	}
}

// sweepRequest is the body of POST /v1/sweeps.
type sweepRequest struct {
	// Graph names a stored graph; the sweep is pinned to its current
	// version and fails if the graph is replaced before it runs.
	Graph string `json:"graph"`
	// Algorithms lists matcher names; empty means the paper's eight.
	Algorithms []string `json:"algorithms"`
	// Repeats is the timed executions per threshold; <1 means 1.
	Repeats int `json:"repeats"`
	// Seed configures the stochastic matchers; 0 means 1.
	Seed int64 `json:"seed"`
}

type sweepResultJSON struct {
	Algorithm string  `json:"algorithm"`
	BestT     float64 `json:"best_t"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
	RuntimeMS float64 `json:"runtime_ms"`
}

type sweepJSON struct {
	ID           string            `json:"id"`
	Graph        string            `json:"graph"`
	GraphVersion int64             `json:"graph_version"`
	Algorithms   []string          `json:"algorithms"`
	Repeats      int               `json:"repeats"`
	Seed         int64             `json:"seed"`
	State        JobState          `json:"state"`
	Error        string            `json:"error,omitempty"`
	Created      time.Time         `json:"created"`
	Started      *time.Time        `json:"started,omitempty"`
	Finished     *time.Time        `json:"finished,omitempty"`
	Results      []sweepResultJSON `json:"results,omitempty"`
}

func sweepViewJSON(v JobView) sweepJSON {
	out := sweepJSON{
		ID:           v.ID,
		Graph:        v.Graph,
		GraphVersion: v.GraphVersion,
		Algorithms:   v.Algorithms,
		Repeats:      v.Repeats,
		Seed:         v.Seed,
		State:        v.State,
		Error:        v.Error,
		Created:      v.Created,
	}
	if !v.Started.IsZero() {
		t := v.Started
		out.Started = &t
	}
	if !v.Finished.IsZero() {
		t := v.Finished
		out.Finished = &t
	}
	for _, res := range v.Results {
		out.Results = append(out.Results, sweepResultJSON{
			Algorithm: res.Algorithm,
			BestT:     res.BestT,
			Precision: res.Best.Precision,
			Recall:    res.Best.Recall,
			F1:        res.Best.F1,
			RuntimeMS: float64(res.Runtime) / float64(time.Millisecond),
		})
	}
	return out
}

func (s *Server) handleSweepCreate(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req sweepRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad sweep request: %v", err)
		return
	}
	e, ok := s.store.Get(req.Graph)
	if !ok {
		writeError(w, http.StatusNotFound, "no graph %q", req.Graph)
		return
	}
	algorithms := req.Algorithms
	if len(algorithms) == 0 {
		algorithms = core.Names()
	}
	// Resolve eagerly so a typo fails the request, not the job.
	if _, err := algo.AllByName(algorithms, normSeed(req.Seed)); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	repeats := req.Repeats
	if repeats < 1 {
		repeats = 1
	}
	job, err := s.jobs.Submit(&SweepJob{
		Graph:        e.Name,
		GraphVersion: e.Version,
		Algorithms:   algorithms,
		Repeats:      repeats,
		Seed:         normSeed(req.Seed),
	})
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			s.shedBacklog.Add(1)
			writeShed(w, resilience.ReasonBacklog, time.Second, "%v", err)
			return
		}
		writeShed(w, "shutting_down", time.Second, "%v", err)
		return
	}
	s.sweepsCreated.Inc()
	view, _ := s.jobs.Get(job.ID)
	writeJSON(w, http.StatusAccepted, sweepViewJSON(view))
}

func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	views := s.jobs.List()
	out := make([]sweepJSON, len(views))
	for i, v := range views {
		out[i] = sweepViewJSON(v)
	}
	writeJSON(w, http.StatusOK, map[string]any{"sweeps": out})
}

func (s *Server) handleSweepGet(w http.ResponseWriter, r *http.Request) {
	view, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no sweep %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, sweepViewJSON(view))
}

func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.jobs.Cancel(id) {
		writeError(w, http.StatusNotFound, "no sweep %q", id)
		return
	}
	view, _ := s.jobs.Get(id)
	writeJSON(w, http.StatusOK, sweepViewJSON(view))
}
