package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/ccer-go/ccer/internal/algo"
	"github.com/ccer-go/ccer/internal/cluster"
	"github.com/ccer-go/ccer/internal/core"
	"github.com/ccer-go/ccer/internal/dataset"
	"github.com/ccer-go/ccer/internal/durable"
	"github.com/ccer-go/ccer/internal/eval"
	"github.com/ccer-go/ccer/internal/graph"
	"github.com/ccer-go/ccer/internal/obs"
	"github.com/ccer-go/ccer/internal/resilience"
	"github.com/ccer-go/ccer/internal/serve"
	"github.com/ccer-go/ccer/internal/simgraph"
)

// span is one call the traced run made into a layer's public function.
// Spans of one replayed request share Req; Parent links a child call to
// the span it belongs to (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the traced run's spans in memory until the run ends. A nil
// tracer runs the calls untraced. It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

// do runs f inside a span; f receives the span's id, so calls it makes
// can record children.
func (t *tracer) do(name string, parent, req int, f func(id int)) {
	if t == nil {
		f(-1)
		return
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	f(id)
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
}

// add records a span measured elsewhere (a stage the program traced
// itself), offset from the tracer's start.
func (t *tracer) add(name string, parent, req int, start time.Time, d time.Duration) {
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, Start: s, End: s + d.Nanoseconds()})
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	n           int
	total, self time.Duration // self excludes the span's children
}

func (t *tracer) stats() map[string]*layerStat {
	out := map[string]*layerStat{}
	if t == nil {
		return out
	}
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.n++
		st.total += s.dur()
		st.self += s.dur() - child[s.ID]
	}
	return out
}

// under totals, by name, the spans whose parent span is named parent.
func (t *tracer) under(parent string) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Parent >= 0 && t.spans[s.Parent].Name == parent {
			out[s.Name] += s.dur()
		}
	}
	return out
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayer re-runs recorded requests in-process: once whole through the
// handler of a serve.Server built with the nodes' configuration, then
// call by call through the layers' public functions, each call in a
// span under the request's handler span.
type replayer struct {
	w     *workload
	tr    *tracer
	srv   *serve.Server
	store *serve.Store
	cache *serve.ResultCache
	lim   *resilience.Limiter
	log   *durable.Log
	pers  *tracedPersister
	refs  *refs
	// reps are the representation caches of the replayed kernel calls,
	// sized like the nodes' (-repcache 2), so they hit where the nodes'
	// do.
	reps *simgraph.RepCaches
	// backends are the routed workload's node URLs, for placement.
	backends []string
}

// tracedPersister commits the replay store's writes through the durable
// log, in a span under the Store.Put that triggered them.
type tracedPersister struct {
	log         *durable.Log
	tr          *tracer
	parent, req int
}

func (p *tracedPersister) PersistPut(e *serve.GraphEntry) error {
	var err error
	p.tr.do("durable.Log.PutGraph", p.parent, p.req, func(int) {
		err = p.log.PutGraph(durable.GraphRecord{Name: e.Name, Version: e.Version, Checksum: e.Checksum,
			Source: e.Source, Dataset: e.Dataset, Seed: e.Seed, Scale: e.Scale, Created: e.Created}, e.Graph, e.GT)
	})
	return err
}

func (p *tracedPersister) PersistDelete(name string) error { return p.log.DeleteGraph(name) }

func newReplayer(w *workload, dir string, tr *tracer, rf *refs, backends []string) (*replayer, error) {
	cfg := serve.Config{}
	if w.durable {
		cfg.DataDir, cfg.CompactEvery = filepath.Join(dir, "server"), 2*time.Second
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	r := &replayer{w: w, tr: tr, srv: srv, store: serve.NewStore(), cache: serve.NewResultCache(256),
		lim: resilience.NewLimiter(runtime.GOMAXPROCS(0), 128), refs: rf, backends: backends,
		reps: simgraph.NewRepCaches(2)}
	if w.durable {
		log, _, err := durable.Open(durable.Config{Dir: filepath.Join(dir, "log"), CompactEvery: -1})
		if err != nil {
			_ = srv.Close(context.Background())
			return nil, err
		}
		r.log = log
		r.pers = &tracedPersister{log: log, tr: tr}
		r.store.SetPersister(r.pers)
	}
	return r, nil
}

func (r *replayer) close() error {
	err := r.srv.Close(context.Background())
	if r.log != nil {
		if cerr := r.log.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// serveOp runs one op through the replay server's handler.
func (r *replayer) serveOp(op *Op) int {
	req := httptest.NewRequest(op.Method, op.Path, bytes.NewReader(op.Body))
	if op.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	r.srv.Handler().ServeHTTP(rec, req)
	return rec.Code
}

// prepare brings the replay server and the replay's own layer instances
// to the state the nodes had when the timed phase began: the set-up
// requests through the handler, the read-back graphs in the store and
// the warmed matchings in the cache. The layer calls of the set-up
// generations are replayed too, as root spans: they are where match-hot,
// match-cold and routed run the semantic-family kernels.
func (r *replayer) prepare(stages [][]Op, graphs map[string]*graphRef) error {
	stored := map[string]bool{}
	for _, stage := range stages {
		for i := range stage {
			// A routed graph, written to both replicas, is stored once
			// here; a routed key warmed on both replicas is served twice,
			// and the second is a cache hit.
			if gc, ok := stage[i].Check.(*genCheck); ok {
				if stored[gc.req.Name] {
					continue
				}
				stored[gc.req.Name] = true
			}
			if code := r.serveOp(&stage[i]); code/100 != 2 {
				return fmt.Errorf("replay set-up %s %s: status %d", stage[i].Method, stage[i].Path, code)
			}
			if gc, ok := stage[i].Check.(*genCheck); ok && !stage[i].Timed {
				if err := r.generateLayers(-1, -1, gc); err != nil {
					return err
				}
			}
		}
	}
	for name, g := range graphs {
		if _, err := r.store.Put(&serve.GraphEntry{Name: name, Graph: g.graph, GT: g.groundTruth, Checksum: g.checksum}); err != nil {
			return err
		}
		for _, stage := range stages {
			for i := range stage {
				if mc, ok := stage[i].Check.(*matchCheck); ok && mc.req.Graph == name {
					e, _ := r.store.Get(name)
					for _, a := range mc.req.algorithms() {
						pairs, err := r.refs.matchPairs(g, a, mc.req.Threshold, mc.req.Seed)
						if err != nil {
							return err
						}
						r.cache.Put(serve.CacheKey{Graph: name, Version: e.Version, Algorithm: a, Threshold: mc.req.Threshold, Seed: mc.req.Seed}, pairs)
					}
				}
			}
		}
	}
	return nil
}

// replay re-runs one recorded op.
func (r *replayer) replay(req int, op *Op) error {
	switch c := op.Check.(type) {
	case *matchCheck:
		return r.match(req, op, c)
	case *genCheck:
		return r.generate(req, op, c)
	}
	return nil
}

// handle runs op through the handler inside a span and returns the
// span's id; the replayed layer calls that follow are its children, so
// the handler's self time is its own cost: decoding, routing, encoding.
// An untimed op (routed's writes) gets a span of its own name, so that
// the handler metrics describe the workload's timed operation.
func (r *replayer) handle(req int, op *Op, want int) (int, error) {
	name := "serve.Server.Handler"
	if !op.Timed {
		name += "/untimed"
	}
	root, code := -1, 0
	r.tr.do(name, -1, req, func(id int) { root, code = id, r.serveOp(op) })
	if code != want {
		return root, fmt.Errorf("replay %s %s: status %d", op.Method, op.Body, code)
	}
	return root, nil
}

func (r *replayer) match(req int, op *Op, c *matchCheck) error {
	root, err := r.handle(req, op, 200)
	if err != nil {
		return err
	}
	r.matchLayers(root, req, c)
	if r.w.nodes > 1 {
		r.tr.do("cluster.Replicas", -1, req, func(int) { cluster.Replicas(placementKey(c.req.Graph), r.backends, 2) })
	}
	return nil
}

// matchLayers replays, as children of the handler span, the layer calls
// a match request makes: the store lookup, per algorithm the cache
// lookup and on a miss the admission slot and the matcher, and the
// evaluation of every result.
func (r *replayer) matchLayers(root, req int, c *matchCheck) {
	var e *serve.GraphEntry
	r.tr.do("serve.Store.Get", root, req, func(int) { e, _ = r.store.Get(c.req.Graph) })
	if e == nil {
		return
	}
	for _, name := range c.req.algorithms() {
		key := serve.CacheKey{Graph: e.Name, Version: e.Version, Algorithm: name, Threshold: c.req.Threshold, Seed: c.req.Seed}
		var pairs []core.Pair
		var hit bool
		r.tr.do("serve.ResultCache.Get", root, req, func(int) { pairs, hit = r.cache.Get(key) })
		if !hit {
			r.tr.do("resilience.Limiter.Acquire", root, req, func(int) {
				if r.lim.Acquire(context.Background(), resilience.Interactive, 2*time.Second) == nil {
					r.lim.Release()
				}
			})
			r.tr.do("core.Matcher.Match", root, req, func(int) {
				ms, _ := algo.AllByName([]string{name}, c.req.Seed)
				pairs = ms[0].Match(e.Graph, c.req.Threshold)
			})
			r.cache.Put(key, pairs)
		}
		if e.GT != nil && e.GT.Len() > 0 {
			r.tr.do("eval.Evaluate", root, req, func(int) { eval.Evaluate(pairs, e.GT) })
		}
	}
}

// simStage maps a generation stage the simgraph kernels trace themselves
// to the kernel it exercises.
func simStage(name string) string {
	stage, _, _ := strings.Cut(name, "/")
	switch stage {
	case "bag-space", "bag-rows":
		return "bag"
	case "gram-reps", "gram-rows":
		return "gram"
	case "embed", "models":
		return "embed"
	case "assemble", "bag-assemble", "gram-assemble":
		return "assemble"
	}
	return stage // reps, rows, tokenize
}

func (r *replayer) generate(req int, op *Op, c *genCheck) error {
	root, err := r.handle(req, op, 201)
	if err != nil {
		return err
	}
	return r.generateLayers(root, req, c)
}

// generateLayers replays the layer calls of a generation: the admission
// slot, the synthetic task, the similarity kernels, and per graph the
// checksum and the durable store commit.
func (r *replayer) generateLayers(root, req int, c *genCheck) error {
	r.tr.do("resilience.Limiter.Acquire", root, req, func(int) {
		if r.lim.Acquire(context.Background(), resilience.Bulk, 2*time.Second) == nil {
			r.lim.Release()
		}
	})
	_, spec, err := r.refs.task(c.req)
	if err != nil {
		return err
	}
	var task *dataset.Task
	r.tr.do("datagen.Spec.Generate", root, req, func(int) { task = spec.Generate(c.req.Seed, c.req.Scale) })
	var graphs []*graph.Bipartite
	if c.req.Family != "" {
		trace := obs.NewTrace("replay")
		r.tr.do("simgraph.GenerateStats", root, req, func(id int) {
			sgs, _ := simgraph.GenerateStats(task, spec.KeyAttrs, simgraph.Options{
				Families: []simgraph.Family{simgraph.Family(c.req.Family)}, KeepNoMatchGraphs: true,
				Caches: r.reps, Trace: trace})
			for _, sg := range sgs {
				graphs = append(graphs, sg.G)
			}
			view := trace.Snapshot()
			for _, s := range view.Spans {
				if strings.HasPrefix(s.Parent, "generate/") {
					r.tr.add("simgraph.stage."+simStage(s.Name), id, req,
						view.Start.Add(time.Duration(s.StartNS)), time.Duration(s.DurNS))
				}
			}
		})
	} else {
		var g *graph.Bipartite
		r.tr.do("strsim.Func", root, req, func(int) { g, err = measureGraph(task, spec.KeyAttrs, c.req.Measure) })
		if err != nil {
			return err
		}
		graphs = []*graph.Bipartite{g}
	}
	for k, g := range graphs {
		var sum uint64
		r.tr.do("graph.Bipartite.Checksum", root, req, func(int) { sum = g.Checksum() })
		r.tr.do("graph.Bipartite.WriteEdgeList", -1, req, func(int) { _ = g.WriteEdgeList(io.Discard) })
		r.tr.do("serve.Store.Put", root, req, func(id int) {
			if r.pers != nil {
				r.pers.parent, r.pers.req = id, req
			}
			_, err = r.store.Put(&serve.GraphEntry{Name: c.names[k], Graph: g, GT: task.GT, Checksum: sum,
				Source: "generate", Dataset: c.req.Dataset, Seed: c.req.Seed, Scale: c.req.Scale})
		})
		if err != nil {
			return err
		}
	}
	return nil
}
