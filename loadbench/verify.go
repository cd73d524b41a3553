package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/ccer-go/ccer/internal/algo"
	"github.com/ccer-go/ccer/internal/core"
	"github.com/ccer-go/ccer/internal/datagen"
	"github.com/ccer-go/ccer/internal/dataset"
	"github.com/ccer-go/ccer/internal/eval"
	"github.com/ccer-go/ccer/internal/graph"
	"github.com/ccer-go/ccer/internal/simgraph"
	"github.com/ccer-go/ccer/internal/strsim"
)

// Response bodies, as erserve renders them.
type (
	graphInfo struct {
		Name           string  `json:"name"`
		Version        int64   `json:"version"`
		Checksum       string  `json:"checksum"`
		N1             int     `json:"n1"`
		N2             int     `json:"n2"`
		Edges          int     `json:"edges"`
		HasGroundTruth bool    `json:"has_ground_truth"`
		Dataset        string  `json:"dataset"`
		Seed           int64   `json:"seed"`
		Scale          float64 `json:"scale"`
	}
	familyReply struct {
		Family string      `json:"family"`
		Graphs []graphInfo `json:"graphs"`
	}
	matchReply struct {
		Graph     string  `json:"graph"`
		Version   int64   `json:"version"`
		Threshold float64 `json:"threshold"`
		Seed      int64   `json:"seed"`
		Results   []struct {
			Algorithm string `json:"algorithm"`
			Pairs     []struct {
				U int32   `json:"u"`
				V int32   `json:"v"`
				W float64 `json:"w"`
			} `json:"pairs"`
			Metrics *struct {
				Precision float64 `json:"precision"`
				Recall    float64 `json:"recall"`
				F1        float64 `json:"f1"`
			} `json:"metrics"`
		} `json:"results"`
	}
)

// graphRef is a reference graph's identity.
type graphRef struct {
	name           string
	checksum       uint64
	n1, n2, edges  int
	graph          *graph.Bipartite // kept only while a caller needs it
	groundTruth    *dataset.GroundTruth
	version        int64
	hasGroundTruth bool
}

// refs memoizes the in-process reference computations. Its methods are
// safe for concurrent use.
type refs struct {
	mu    sync.Mutex
	tasks map[string]*dataset.Task
	gens  map[string][]graphRef
	match map[string][]core.Pair
}

func newRefs() *refs {
	return &refs{tasks: map[string]*dataset.Task{}, gens: map[string][]graphRef{}, match: map[string][]core.Pair{}}
}

// task is the synthetic task a generation request builds.
func (r *refs) task(req genReq) (*dataset.Task, datagen.Spec, error) {
	spec, err := datagen.SpecByID(req.Dataset)
	if err != nil {
		return nil, spec, err
	}
	key := fmt.Sprint(req.Dataset, "|", req.Seed, "|", req.Scale)
	r.mu.Lock()
	t := r.tasks[key]
	r.mu.Unlock()
	if t == nil {
		t = spec.Generate(req.Seed, req.Scale)
		r.mu.Lock()
		r.tasks[key] = t
		r.mu.Unlock()
	}
	return t, spec, nil
}

// gen is the reference for a generation request, graph by graph in the
// order the server stores them: the family kernels' own checksums from
// simgraph.GenerateStats, or for one measure a plain pair loop over the
// scalar strsim function, min-max normalized.
func (r *refs) gen(req genReq) ([]graphRef, error) {
	key := fmt.Sprint(req.Dataset, "|", req.Seed, "|", req.Scale, "|", req.Measure, "|", req.Family)
	r.mu.Lock()
	memo, ok := r.gens[key]
	r.mu.Unlock()
	if ok {
		return memo, nil
	}
	task, spec, err := r.task(req)
	if err != nil {
		return nil, err
	}
	var out []graphRef
	if req.Family != "" {
		graphs, _ := simgraph.GenerateStats(task, spec.KeyAttrs, simgraph.Options{
			Families: []simgraph.Family{simgraph.Family(req.Family)}, KeepNoMatchGraphs: true})
		for _, sg := range graphs {
			out = append(out, refOf(sg.Name, sg.G))
		}
	} else {
		g, err := measureGraph(task, spec.KeyAttrs, req.Measure)
		if err != nil {
			return nil, err
		}
		out = []graphRef{refOf(req.Name, g)}
	}
	r.mu.Lock()
	r.gens[key] = out
	r.mu.Unlock()
	return out, nil
}

func refOf(name string, g *graph.Bipartite) graphRef {
	return graphRef{name: name, checksum: g.Checksum(), n1: g.N1(), n2: g.N2(), edges: g.NumEdges()}
}

// measureGraph is the single-measure similarity graph by the definition:
// every pair of non-empty texts with a positive score, min-max
// normalized.
func measureGraph(task *dataset.Task, attrs []string, measure string) (*graph.Bipartite, error) {
	sim, ok := strsim.AllMeasures()[measure]
	if !ok {
		return nil, fmt.Errorf("unknown measure %q", measure)
	}
	t1, t2 := task.V1.AttrTexts(attrs...), task.V2.AttrTexts(attrs...)
	b := graph.NewBuilder(len(t1), len(t2))
	for i, a := range t1 {
		if a == "" {
			continue
		}
		for j, c := range t2 {
			if c == "" {
				continue
			}
			if v := sim(a, c); v > 0 {
				b.Add(int32(i), int32(j), v)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return g.NormalizeMinMax(), nil
}

// matchPairs is the reference matching of one algorithm on a stored graph.
func (r *refs) matchPairs(sg *graphRef, name string, t float64, seed int64) ([]core.Pair, error) {
	key := fmt.Sprint(sg.name, "|", sg.version, "|", name, "|", strconv.FormatFloat(t, 'g', -1, 64), "|", seed)
	r.mu.Lock()
	pairs, ok := r.match[key]
	r.mu.Unlock()
	if ok {
		return pairs, nil
	}
	ms, err := algo.AllByName([]string{name}, seed)
	if err != nil {
		return nil, err
	}
	pairs = ms[0].Match(sg.graph, t)
	r.mu.Lock()
	r.match[key] = pairs
	r.mu.Unlock()
	return pairs, nil
}

// verifier checks every 2xx response against references computed
// in-process from the library. It runs after the timed phases, so
// reference work stays out of every timing.
type verifier struct {
	refs    *refs
	workers int

	mu   sync.Mutex
	kept map[string]bool // match key + body checksum: body retained once

	expect  map[string]graphRef // graph name -> reference, from its creation
	origin  map[string]genReq   // graph name -> the request that created it
	graphs  map[string]*graphRef
	mis     atomic.Int64
	problem []string
}

func newVerifier(workers int, rf *refs) *verifier {
	return &verifier{refs: rf, workers: workers, kept: map[string]bool{},
		expect: map[string]graphRef{}, origin: map[string]genReq{}, graphs: map[string]*graphRef{}}
}

// keep retains the body of every 2xx response except repeats of a match
// key already retained with the same checksum: identical bytes need one
// check.
func (v *verifier) keep(op *Op, r *Result) bool {
	if r.Status < 200 || r.Status > 299 {
		return false
	}
	mc, ok := op.Check.(*matchCheck)
	if !ok || mc.key == "" {
		return true
	}
	k := mc.key + "|" + strconv.FormatUint(uint64(r.Sum), 16)
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.kept[k] {
		return false
	}
	v.kept[k] = true
	return true
}

func (v *verifier) fail(format string, args ...any) {
	v.mis.Add(1)
	v.mu.Lock()
	if len(v.problem) < 8 {
		v.problem = append(v.problem, fmt.Sprintf(format, args...))
	}
	v.mu.Unlock()
}

// batch is one phase's ops with their results and, after verification,
// the ops whose output was wrong.
type batch struct {
	name string
	ops  []Op
	res  []Result
	bad  []bool
}

// verify checks every batch: writes and deletes first (they name the
// reference of every stored graph), then every stored graph read back
// through the API, then the matchings against the library on the
// read-back graphs.
func (v *verifier) verify(c *http.Client, base string, batches []*batch, tr *tracer) error {
	for _, b := range batches {
		b.bad = make([]bool, len(b.ops))
	}
	v.each(batches, func(op *Op) bool { _, ok := op.Check.(*matchCheck); return !ok }, v.checkWrite)
	if err := v.readBack(c, base, batches, tr); err != nil {
		return err
	}
	good := map[string]bool{}
	var goodMu sync.Mutex
	v.each(batches, func(op *Op) bool { _, ok := op.Check.(*matchCheck); return ok }, func(op *Op, r *Result) error {
		mc := op.Check.(*matchCheck)
		k := mc.key + "|" + strconv.FormatUint(uint64(r.Sum), 16)
		if r.Body == nil {
			return nil // a repeat of a retained body; settled below
		}
		err := v.checkMatch(mc, r.Body)
		if mc.key != "" {
			goodMu.Lock()
			good[k] = err == nil
			goodMu.Unlock()
		}
		return err
	})
	for _, b := range batches {
		for i := range b.ops {
			mc, ok := b.ops[i].Check.(*matchCheck)
			r := &b.res[i]
			if ok && r.OK() && r.Body == nil && !good[mc.key+"|"+strconv.FormatUint(uint64(r.Sum), 16)] {
				b.bad[i] = true
				v.fail("%s: match %s: reply differs from every verified reply of its key", b.name, b.ops[i].Body)
			}
		}
	}
	return nil
}

// each runs check on the 2xx results of the ops sel picks, on v.workers
// goroutines, marking failures bad.
func (v *verifier) each(batches []*batch, sel func(*Op) bool, check func(*Op, *Result) error) {
	type job struct {
		b *batch
		i int
	}
	var jobs []job
	for _, b := range batches {
		for i := range b.ops {
			if b.res[i].OK() && sel(&b.ops[i]) {
				jobs = append(jobs, job{b, i})
			}
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < v.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(jobs) {
					return
				}
				j := jobs[k]
				if err := check(&j.b.ops[j.i], &j.b.res[j.i]); err != nil {
					j.b.bad[j.i] = true
					v.fail("%s: %s %s: %v", j.b.name, j.b.ops[j.i].Method, j.b.ops[j.i].Path, err)
				}
			}
		}()
	}
	wg.Wait()
}

func (v *verifier) checkWrite(op *Op, r *Result) error {
	switch c := op.Check.(type) {
	case *delCheck:
		var rep struct {
			Deleted string `json:"deleted"`
		}
		if err := json.Unmarshal(r.Body, &rep); err != nil || rep.Deleted != c.name {
			return fmt.Errorf("delete reply %q", r.Body)
		}
		return nil
	case *genCheck:
		want, err := v.refs.gen(c.req)
		if err != nil {
			return err
		}
		var got []graphInfo
		if c.req.Family == "" {
			var info graphInfo
			if err := json.Unmarshal(r.Body, &info); err != nil {
				return err
			}
			got = []graphInfo{info}
		} else {
			var rep familyReply
			if err := json.Unmarshal(r.Body, &rep); err != nil {
				return err
			}
			if rep.Family != c.req.Family {
				return fmt.Errorf("family %q, want %q", rep.Family, c.req.Family)
			}
			got = rep.Graphs
		}
		if len(got) != len(want) || len(want) != len(c.names) {
			return fmt.Errorf("%d graphs, reference has %d, plan has %d", len(got), len(want), len(c.names))
		}
		for k, info := range got {
			ref := want[k]
			if c.req.Family != "" && c.names[k] != c.req.Name+"/"+ref.name {
				return fmt.Errorf("planned graph %s, reference generates %s", c.names[k], ref.name)
			}
			ref.name = c.names[k]
			ref.hasGroundTruth = true
			if err := sameGraph(info, ref, c.req); err != nil {
				return err
			}
			v.mu.Lock()
			v.expect[ref.name] = ref
			v.origin[ref.name] = c.req
			v.mu.Unlock()
		}
		return nil
	}
	return fmt.Errorf("no check for %s %s", op.Method, op.Path)
}

func sameGraph(info graphInfo, ref graphRef, req genReq) error {
	if info.Name != ref.name || info.Checksum != fmt.Sprintf("%016x", ref.checksum) ||
		info.N1 != ref.n1 || info.N2 != ref.n2 || info.Edges != ref.edges ||
		info.HasGroundTruth != ref.hasGroundTruth || info.Dataset != req.Dataset ||
		info.Seed != req.Seed || info.Scale != req.Scale {
		return fmt.Errorf("graph %+v differs from reference %s %016x %dx%d %d edges",
			info, ref.name, ref.checksum, ref.n1, ref.n2, ref.edges)
	}
	return nil
}

// readBack lists every stored graph, reads each back as an edge list
// with graph.ReadEdgeListMax, and checks its checksum against the
// server's listing and the reference of the request that created it.
// The graphs the match requests name are kept, with the ground truth of
// their generating task, for checking the matchings.
func (v *verifier) readBack(c *http.Client, base string, batches []*batch, tr *tracer) error {
	matched := map[string]bool{}
	for _, b := range batches {
		for i := range b.ops {
			if mc, ok := b.ops[i].Check.(*matchCheck); ok {
				matched[mc.req.Graph] = true
			}
		}
	}
	var list struct {
		Graphs []graphInfo `json:"graphs"`
	}
	if err := getJSON(c, base+"/v1/graphs", &list); err != nil {
		return err
	}
	for _, info := range list.Graphs {
		resp, err := c.Get(base + "/v1/graphs/" + info.Name + "?format=edgelist")
		if err != nil {
			return err
		}
		g, err := graph.ReadEdgeListMax(resp.Body, 0)
		resp.Body.Close()
		if err != nil {
			v.fail("read back %s: %v", info.Name, err)
			continue
		}
		var sum uint64
		tr.do("graph.Bipartite.Checksum", -1, -1, func(int) { sum = g.Checksum() })
		if tr != nil {
			tr.do("graph.Bipartite.WriteEdgeList", -1, -1, func(int) { _ = g.WriteEdgeList(io.Discard) })
		}
		ref, ok := v.expect[info.Name]
		switch {
		case fmt.Sprintf("%016x", sum) != info.Checksum:
			v.fail("read back %s: checksum %016x, server lists %s", info.Name, sum, info.Checksum)
		case !ok:
			v.fail("read back %s: no request of this run created it", info.Name)
		case ref.checksum != sum:
			v.fail("read back %s: checksum %016x, reference %016x", info.Name, sum, ref.checksum)
		}
		if !matched[info.Name] {
			continue
		}
		task, _, err := v.refs.task(v.origin[info.Name])
		if err != nil {
			return err
		}
		// The first EdgesByWeight call builds the lazy index the matchers
		// share, as the set-up warm-up does on the server.
		tr.do("graph.Bipartite.EdgesByWeight", -1, -1, func(int) { g.EdgesByWeight() })
		ref.graph, ref.groundTruth, ref.version = g, task.GT, info.Version
		v.graphs[info.Name] = &ref
	}
	for name := range matched {
		if v.graphs[name] == nil {
			return fmt.Errorf("graph %s named by match requests is not stored", name)
		}
	}
	return nil
}

func getJSON(c *http.Client, url string, into any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// checkMatch compares a match reply with algo's matchers and
// eval.Evaluate run on the read-back graph.
func (v *verifier) checkMatch(mc *matchCheck, body []byte) error {
	var rep matchReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return err
	}
	sg := v.graphs[mc.req.Graph]
	if rep.Graph != mc.req.Graph || rep.Version != sg.version || rep.Threshold != mc.req.Threshold || rep.Seed != mc.req.Seed {
		return fmt.Errorf("reply header %s v%d t=%g seed=%d", rep.Graph, rep.Version, rep.Threshold, rep.Seed)
	}
	algos := mc.req.algorithms()
	if len(rep.Results) != len(algos) {
		return fmt.Errorf("%d results for %d algorithms", len(rep.Results), len(algos))
	}
	for k, name := range algos {
		got := rep.Results[k]
		if got.Algorithm != name {
			return fmt.Errorf("result %d is %s, want %s", k, got.Algorithm, name)
		}
		want, err := v.refs.matchPairs(sg, name, mc.req.Threshold, mc.req.Seed)
		if err != nil {
			return err
		}
		if len(got.Pairs) != len(want) {
			return fmt.Errorf("%s: %d pairs, reference %d", name, len(got.Pairs), len(want))
		}
		for i, p := range got.Pairs {
			if p.U != want[i].U || p.V != want[i].V || p.W != want[i].W {
				return fmt.Errorf("%s: pair %d is %+v, reference %+v", name, i, p, want[i])
			}
		}
		if sg.groundTruth == nil || sg.groundTruth.Len() == 0 {
			if got.Metrics != nil {
				return fmt.Errorf("%s: metrics without ground truth", name)
			}
			continue
		}
		m := eval.Evaluate(want, sg.groundTruth)
		if got.Metrics == nil || got.Metrics.Precision != m.Precision || got.Metrics.Recall != m.Recall || got.Metrics.F1 != m.F1 {
			return fmt.Errorf("%s: metrics %+v, reference %+v", name, got.Metrics, m)
		}
	}
	return nil
}
