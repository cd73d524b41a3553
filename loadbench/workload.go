package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/ccer-go/ccer/internal/cluster"
	"github.com/ccer-go/ccer/internal/core"
	"github.com/ccer-go/ccer/internal/datagen"
	"github.com/ccer-go/ccer/internal/simgraph"
)

// workload is one traffic mix (why each exists: BENCHMARK.json and
// README.md). Every request it sends is a pure function of the seed and
// the request's tick index, so a seed names one exact request sequence.
type workload struct {
	name string
	// nodes is the number of erserve nodes; more than one run as backends
	// behind an erserve -route router with replicas 2.
	nodes int
	// durable runs the nodes with -data-dir: journal and snapshots, with
	// an fsync per commit.
	durable bool
	// rate is the nominal open-loop rate in ticks per second; a tick is
	// one request of the workload's main kind plus the deletes or writes
	// riding on it.
	rate float64
	// replay is how many timed requests of the traced phase the traced
	// run replays in-process.
	replay int
}

var workloads = []*workload{
	{name: "match-hot", nodes: 1, rate: 300, replay: 300},
	{name: "match-cold", nodes: 1, rate: 260, replay: 160},
	{name: "generate", nodes: 1, durable: true, rate: 85, replay: 80},
	{name: "routed", nodes: 3, rate: 300, replay: 300},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

const (
	// match-hot and routed serve one D2 single-measure graph and one dense
	// SB-SEM graph at half the paper's D2 size: all-eight replies of
	// ~250 KB and single-algorithm replies of ~30 KB.
	hotScale = 0.5
	// match-cold matches the six SB-SEM graphs of D2 at the same scale,
	// ~240k edges each, where the matchers outweigh the encoding.
	coldScale = 0.5
	// genScale keeps generated tasks at 25-45 entities a side, so a
	// generation is dominated by the write path and a phase of 14 s holds
	// the 1000 requests a p99 needs.
	genScale = 0.02
	// One generate tick in genFamilyEvery is a family-mode request; a
	// family stores 6 to 60 graphs.
	genFamilyEvery = 20
	// Each generate tick deletes what the tick deleteLag earlier created,
	// so the number of stored graphs stays flat.
	deleteLag = 16
	// One routed tick in routedWriteEvery is a single-measure generation
	// fanned to its two replicas; it deletes the write routedDeleteLag
	// writes earlier. A write holds one of the two connections for a few
	// milliseconds and delays the reads behind it; at one tick in 1000
	// those reads stay out of the reads' p99 (at one in 100 they made it).
	routedWriteEvery = 1000
	routedDeleteLag  = 1
	// warmThreshold is the match-cold set-up threshold that builds each
	// graph's lazy indexes; timed requests never use it.
	warmThreshold = 0.99
)

var (
	hotThresholds = []float64{0.3, 0.5, 0.7}
	genDatasets   = []string{"D1", "D2"}
	genMeasures   = []string{"Jaccard", "Levenshtein", "Jaro", "Cosine"}
)

// genReq is the JSON body of a generating POST /v1/graphs.
type genReq struct {
	Name    string  `json:"name"`
	Dataset string  `json:"dataset"`
	Seed    int64   `json:"seed"`
	Scale   float64 `json:"scale"`
	Measure string  `json:"measure,omitempty"`
	Family  string  `json:"family,omitempty"`
}

// matchReq is the JSON body of POST /v1/match; no algorithms means all
// eight.
type matchReq struct {
	Graph      string   `json:"graph"`
	Algorithms []string `json:"algorithms,omitempty"`
	Threshold  float64  `json:"threshold"`
	Seed       int64    `json:"seed"`
}

func (m matchReq) algorithms() []string {
	if len(m.Algorithms) == 0 {
		return core.Names()
	}
	return m.Algorithms
}

// The expected outcome of an op, checked by the verifier.
type (
	matchCheck struct {
		req matchReq
		// key groups requests with identical bodies, whose replies must
		// be identical; "" when every request is unique.
		key string
	}
	genCheck struct {
		req   genReq
		names []string // graphs the request stores
	}
	delCheck struct{ name string }
)

// mix hashes a seed and some indexes into 64 well-spread bits
// (splitmix64 rounds).
func mix(vals ...uint64) uint64 {
	var z uint64
	for _, v := range vals {
		z += v + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

// plan is a workload's request sequence for one seed.
type plan struct {
	w    *workload
	seed int64
	// graphs are the set-up generation requests, in order.
	graphs []genReq
	// hot is the match-hot and routed key set, nine keys per (graph,
	// threshold): all eight algorithms, then each alone.
	hot []matchReq
	// cold lists the match-cold graphs.
	cold []string
	// first is the first tick of the timed phase; earlier ticks are
	// set-up.
	first int
	// famNames caches the graph names of one family request by dataset
	// and family; they depend on neither seed nor scale.
	famNames map[[2]string][]string
	// lost holds the ticks whose creating request failed or was never
	// sent.
	lost map[int]bool
}

func newPlan(w *workload, seed int64) (*plan, error) {
	p := &plan{w: w, seed: seed, famNames: map[[2]string][]string{}, lost: map[int]bool{}}
	switch w.name {
	case "match-hot", "routed":
		// One pair of tasks for every seed, as for match-cold: the reply
		// sizes follow the graphs. The seed varies where the key rotation
		// starts.
		sm := genReq{Name: "hot-sm", Dataset: "D2", Seed: 1, Scale: hotScale, Measure: "Jaccard"}
		fam := genReq{Name: "hot", Dataset: "D2", Seed: 2, Scale: hotScale, Family: string(simgraph.SBSem)}
		p.graphs = []genReq{sm, fam}
		names, err := p.familyNames("D2", string(simgraph.SBSem))
		if err != nil {
			return nil, err
		}
		for _, g := range []string{sm.Name, fam.Name + "/" + names[0]} {
			for _, t := range hotThresholds {
				p.hot = append(p.hot, matchReq{Graph: g, Threshold: t, Seed: 1})
				for _, a := range core.Names() {
					p.hot = append(p.hot, matchReq{Graph: g, Algorithms: []string{a}, Threshold: t, Seed: 1})
				}
			}
		}
	case "match-cold":
		// One task for every seed: a matcher's cost depends steeply on the
		// graph, so graphs drawn per seed would add their cost to the
		// seed-to-seed spread. The seed varies the thresholds.
		fam := genReq{Name: "cold", Dataset: "D2", Seed: 1, Scale: coldScale, Family: string(simgraph.SBSem)}
		p.graphs = []genReq{fam}
		names, err := p.familyNames("D2", string(simgraph.SBSem))
		if err != nil {
			return nil, err
		}
		for _, n := range names {
			p.cold = append(p.cold, fam.Name+"/"+n)
		}
	case "generate":
		p.first = deleteLag
	}
	return p, nil
}

// dsSeed derives a dataset seed from the run seed.
func (p *plan) dsSeed(kind, i int) int64 {
	return 1 + int64(mix(uint64(p.seed), uint64(kind), uint64(i))%1_000_000)
}

// familyNames lists the graphs one family request stores, learned from a
// tiny in-process generation (with KeepNoMatchGraphs every graph of the
// family is kept, so the list depends only on dataset and family).
func (p *plan) familyNames(dataset, family string) ([]string, error) {
	key := [2]string{dataset, family}
	if names, ok := p.famNames[key]; ok {
		return names, nil
	}
	spec, err := datagen.SpecByID(dataset)
	if err != nil {
		return nil, err
	}
	graphs := simgraph.Generate(spec.Generate(1, 0.001), spec.KeyAttrs, simgraph.Options{
		Families: []simgraph.Family{simgraph.Family(family)}, KeepNoMatchGraphs: true})
	names := make([]string, len(graphs))
	for i, g := range graphs {
		names[i] = g.Name
	}
	p.famNames[key] = names
	return names, nil
}

// stored lists the graph names a generation request stores.
func (p *plan) stored(req genReq) ([]string, error) {
	if req.Family == "" {
		return []string{req.Name}, nil
	}
	names, err := p.familyNames(req.Dataset, req.Family)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = req.Name + "/" + n
	}
	return out, nil
}

func jsonBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return b
}

func (p *plan) matchOp(m matchReq, timed bool, key string) Op {
	return Op{Method: http.MethodPost, Path: "/v1/match", Body: jsonBody(m), Timed: timed, Dep: -1, after: -1,
		Check: &matchCheck{req: m, key: key}}
}

func (p *plan) genOp(req genReq, timed bool) (Op, error) {
	names, err := p.stored(req)
	if err != nil {
		return Op{}, err
	}
	return Op{Method: http.MethodPost, Path: "/v1/graphs", Body: jsonBody(req), Timed: timed, Dep: -1, after: -1,
		Check: &genCheck{req: req, names: names}}, nil
}

// deleteOps delete part part of parts near-equal shares of the graphs
// that tick's request req created, each waiting for the creation when
// both fall in one phase.
func (p *plan) deleteOps(tick int, req genReq, part, parts int) ([]Op, error) {
	names, err := p.stored(req)
	if err != nil {
		return nil, err
	}
	var out []Op
	for _, name := range names[part*len(names)/parts : (part+1)*len(names)/parts] {
		out = append(out, Op{Method: http.MethodDelete, Path: "/v1/graphs/" + name, Dep: -1, after: tick,
			Check: &delCheck{name: name}})
	}
	return out, nil
}

// tick returns the ops of tick i; the first is the tick's main request.
func (p *plan) tick(i int) ([]Op, error) {
	switch p.w.name {
	case "match-hot":
		return []Op{p.hotOp(i)}, nil
	case "match-cold":
		return []Op{p.coldOp(i)}, nil
	case "generate":
		op, err := p.genOp(p.genTickReq(i), true)
		if err != nil {
			return nil, err
		}
		dels, err := p.genDeletes(i)
		if err != nil {
			return nil, err
		}
		return append([]Op{op}, dels...), nil
	default: // routed
		if i%routedWriteEvery != routedWriteEvery/2 {
			return []Op{p.hotOp(i)}, nil
		}
		w := i / routedWriteEvery
		op, err := p.genOp(p.routedWriteReq(w), false)
		if err != nil {
			return nil, err
		}
		ops := []Op{op}
		if v := w - routedDeleteLag; v >= 0 {
			dels, err := p.deleteOps(v*routedWriteEvery+routedWriteEvery/2, p.routedWriteReq(v), 0, 1)
			if err != nil {
				return nil, err
			}
			ops = append(ops, dels...)
		}
		return ops, nil
	}
}

// hotOp walks the hot set in a fixed rotation from a seeded start: every
// third request asks for all eight algorithms, the others for one, each
// (graph, threshold) in turn. A rotation rather than random draws keeps
// the spacing of the heavy all-eight replies the same for every seed, so
// seeds differ in their graphs, not in how the tail queues.
func (p *plan) hotOp(i int) Op {
	i += int(mix(uint64(p.seed), 11) % uint64(3*len(p.hot)))
	algos := len(core.Names())
	per := 1 + algos
	pairs := len(p.hot) / per
	var idx int
	if i%3 == 0 {
		idx = i / 3 % pairs * per
	} else {
		j := i - i/3 - 1 // index among the single-algorithm requests
		idx = j/algos%pairs*per + 1 + j%algos
	}
	return p.matchOp(p.hot[idx], true, strconv.Itoa(idx))
}

// coldOp runs the eight algorithms in turn over the cold graphs. The k-th
// request of an algorithm uses the k-th point of a golden-ratio sequence
// over [0.1, 0.6) from a seeded start, so every algorithm's thresholds
// cover the range evenly for every seed (the matchers' cost depends
// steeply on the threshold); a per-algorithm shift of a millionth keeps
// every threshold one never sent before.
func (p *plan) coldOp(i int) Op {
	names := core.Names()
	k, a := i/len(names), i%len(names)
	u0 := float64(mix(uint64(p.seed), 12)>>11) / (1 << 53)
	_, frac := math.Modf(u0 + float64(k)*0.6180339887498949 + float64(a)*1e-6)
	m := matchReq{
		Graph:      p.cold[k%len(p.cold)],
		Algorithms: []string{names[a]},
		Threshold:  0.1 + 0.5*frac,
		Seed:       1,
	}
	return p.matchOp(m, true, "")
}

func isFamilyTick(i int) bool { return i%genFamilyEvery == genFamilyEvery/2 }

// genTickReq is generate's request of tick i. The kind, dataset, measure
// and family of every tick follow a fixed rotation, the same for every
// seed; the seed picks the tasks. Family requests come in pairs of one
// family on one task, so the second of each pair finds the
// representations cached while fresh tasks keep evicting.
func (p *plan) genTickReq(i int) genReq {
	name := "g" + strconv.Itoa(i)
	if isFamilyTick(i) {
		pair := i / genFamilyEvery / 2
		families := simgraph.Families()
		return genReq{Name: name, Dataset: genDatasets[pair/len(families)%len(genDatasets)],
			Seed: p.dsSeed(4, pair), Scale: genScale, Family: string(families[pair%len(families)])}
	}
	return genReq{Name: name, Dataset: genDatasets[i%2], Seed: p.dsSeed(5, i), Scale: genScale,
		Measure: genMeasures[(i/2)%len(genMeasures)]}
}

// genDeletes are the deletes riding on generate's tick i: the graph of
// the single-measure tick deleteLag earlier, and a share of the graphs of
// the last family tick at least deleteLag earlier, spread evenly over
// genFamilyEvery ticks so that a 60-graph family is not one burst.
func (p *plan) genDeletes(i int) ([]Op, error) {
	j := i - deleteLag
	if j < 0 {
		return nil, nil
	}
	var out []Op
	if !isFamilyTick(j) {
		dels, err := p.deleteOps(j, p.genTickReq(j), 0, 1)
		if err != nil {
			return nil, err
		}
		out = dels
	}
	if j >= genFamilyEvery/2 {
		slot := (j - genFamilyEvery/2) % genFamilyEvery
		dels, err := p.deleteOps(j-slot, p.genTickReq(j-slot), slot, genFamilyEvery)
		if err != nil {
			return nil, err
		}
		out = append(out, dels...)
	}
	return out, nil
}

// routedWriteReq is routed's w-th write.
func (p *plan) routedWriteReq(w int) genReq {
	return genReq{Name: "w" + strconv.Itoa(w), Dataset: genDatasets[w%2], Seed: p.dsSeed(6, w), Scale: genScale,
		Measure: genMeasures[w%len(genMeasures)]}
}

// phase builds the ops of ticks [from, from+n) at rate ticks per second,
// scheduled from offset 0. A delete waits for its graph's creation when
// that falls in the same phase; earlier phases have finished.
func (p *plan) phase(from, n int, rate float64) ([]Op, error) {
	var ops []Op
	first := map[int]int{}
	for k := 0; k < n; k++ {
		i := from + k
		tops, err := p.tick(i)
		if err != nil {
			return nil, err
		}
		at := time.Duration(float64(k) / rate * float64(time.Second))
		first[i] = len(ops)
		for _, op := range tops {
			if op.after >= 0 && p.lost[op.after] {
				continue // its graph was never created
			}
			op.At, op.tick = at, i
			if idx, ok := first[op.after]; ok && op.after >= 0 {
				op.Dep = idx
			}
			ops = append(ops, op)
		}
	}
	return ops, nil
}

// noteLost records the ticks of a finished phase whose main request did
// not succeed, so later phases do not delete graphs that were never
// created.
func (p *plan) noteLost(ops []Op, res []Result) {
	for i := range ops {
		if ops[i].after < 0 && (i == 0 || ops[i-1].tick != ops[i].tick) && !res[i].OK() {
			p.lost[ops[i].tick] = true
		}
	}
}

// setupStages are the set-up requests, stage after stage: the graphs
// (written to both replicas of a routed graph directly), then the warm-up
// that fills the hot keys into the cache (on both replicas of a routed
// graph) or builds the cold graphs' lazy indexes. For generate they are
// the ticks before the timed phase, so its deletes have targets from the
// start.
func (p *plan) setupStages(backends []string) ([][]Op, error) {
	if p.w.name == "generate" {
		ops, err := p.phase(0, p.first, math.Inf(1))
		return [][]Op{ops}, err
	}
	var graphs []Op
	for _, g := range p.graphs {
		op, err := p.genOp(g, false)
		if err != nil {
			return nil, err
		}
		if p.w.nodes == 1 {
			graphs = append(graphs, op)
			continue
		}
		for _, b := range cluster.Replicas(placementKey(g.Name), backends, 2) {
			op.Base = b
			graphs = append(graphs, op)
		}
	}
	var warm []Op
	switch p.w.name {
	case "match-cold":
		for _, g := range p.cold {
			warm = append(warm, p.matchOp(matchReq{Graph: g, Threshold: warmThreshold, Seed: 1}, false, ""))
		}
	case "match-hot":
		for idx, m := range p.hot {
			warm = append(warm, p.matchOp(m, false, strconv.Itoa(idx)))
		}
	case "routed":
		for idx, m := range p.hot {
			for _, b := range cluster.Replicas(placementKey(m.Graph), backends, 2) {
				op := p.matchOp(m, false, strconv.Itoa(idx))
				op.Base = b
				warm = append(warm, op)
			}
		}
	}
	return [][]Op{graphs, warm}, nil
}

// placementKey mirrors the router's placement unit: a family graph
// "<base>/<function>" is placed by its base.
func placementKey(name string) string {
	base, _, _ := strings.Cut(name, "/")
	return base
}
