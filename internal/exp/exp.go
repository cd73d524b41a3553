// Package exp orchestrates the paper's experimental study end to end:
// it generates the D1-D10 analog tasks, builds the similarity-graph
// corpus over all four weight families, tunes every matching algorithm
// with the threshold sweep, applies the paper's corpus-cleaning rules,
// and exposes one runner per table and figure of the evaluation
// (Section 5-6 and the appendix). Each runner returns structured data and
// renders the same rows/series the paper reports.
package exp

import (
	"context"
	"fmt"
	"time"

	"github.com/ccer-go/ccer/internal/core"
	"github.com/ccer-go/ccer/internal/datagen"
	"github.com/ccer-go/ccer/internal/dataset"
	"github.com/ccer-go/ccer/internal/eval"
	"github.com/ccer-go/ccer/internal/par"
	"github.com/ccer-go/ccer/internal/simgraph"
)

// Config parameterizes a corpus build.
type Config struct {
	// Seed drives dataset generation and BAH.
	Seed int64
	// Scale multiplies the Table 2 dataset sizes (Section 5); values
	// around 0.02-0.05 reproduce the study at laptop scale.
	Scale float64
	// Repeats is the number of timed executions per threshold; the
	// paper's run-time tables use 10.
	Repeats int
	// Datasets selects dataset ids ("D1".."D10"); nil means all ten.
	Datasets []string
	// Families selects weight families; nil means all four.
	Families []simgraph.Family
	// BAHSteps and BAHTime cap the Best Assignment Heuristic; zero
	// means the paper defaults (10,000 steps, 2 minutes). At reduced
	// dataset scale the step cap binds long before the time cap.
	BAHSteps int
	BAHTime  time.Duration
	// SkipClean disables the F-measure-based cleaning rules (noisy and
	// duplicate graph removal), keeping every generated graph.
	SkipClean bool
	// Parallelism is the number of workers the (graph × algorithm) sweep
	// grid fans out over. 1 (or any negative value) runs the grid
	// serially; 0 means runtime.NumCPU(). Results are deterministic and
	// identical to the serial path at any setting, provided BAH's step
	// cap binds before its wall-clock cap (true for the defaults; a
	// binding BAHTime deadline makes BAH timing-dependent even serially).
	// Run-time measurements pick up scheduler noise under parallelism,
	// so use 1 when timing.
	Parallelism int
	// RepCaches, when non-nil, lets repeated corpus builds share the
	// cross-build representation caches (byte-identical output; the
	// caches are pure-function memoization).
	RepCaches *simgraph.RepCaches
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 0.02
	}
	return c.Scale
}

func (c Config) repeats() int {
	if c.Repeats < 1 {
		return 1
	}
	return c.Repeats
}

func (c Config) datasets() []string {
	if len(c.Datasets) > 0 {
		return c.Datasets
	}
	ids := make([]string, 0, 10)
	for _, s := range datagen.Specs() {
		ids = append(ids, s.ID)
	}
	return ids
}

// Matchers returns the eight algorithms in paper order, configured per
// the Config.
func (c Config) Matchers() []core.Matcher {
	steps := c.BAHSteps
	if steps <= 0 {
		steps = core.DefaultBAHSteps
	}
	dur := c.BAHTime
	if dur <= 0 {
		dur = core.DefaultBAHDuration
	}
	return []core.Matcher{
		core.CNC{},
		core.RSR{},
		core.RCA{},
		core.BAH{Seed: c.Seed, MaxSteps: steps, MaxDuration: dur},
		core.BMC{Basis: core.BasisAuto},
		core.EXC{},
		core.KRC{},
		core.UMC{},
	}
}

// GraphResult couples one similarity graph with the tuned results of all
// algorithms (indexed in core.Names() order).
type GraphResult struct {
	Graph    simgraph.SimGraph
	Category datagen.Category
	Results  []eval.SweepResult
}

// F1s returns the per-algorithm best F1 row of this graph.
func (gr GraphResult) F1s() []float64 {
	out := make([]float64, len(gr.Results))
	for i, r := range gr.Results {
		out[i] = r.Best.F1
	}
	return out
}

// Corpus is the fully evaluated experimental corpus.
type Corpus struct {
	Config Config
	// Specs and Tasks are keyed by dataset id.
	Specs map[string]datagen.Spec
	Tasks map[string]*dataset.Task
	// Graphs holds the cleaned corpus with per-algorithm sweep results.
	Graphs []GraphResult
	// GenStats aggregates the generation candidate-filter counters
	// (pairs visited vs. provably skipped) across all datasets.
	GenStats simgraph.GenStats
	// Dropped counts graphs removed by each cleaning rule.
	DroppedNoisy, DroppedDupes int
}

// Algorithms returns the algorithm names in result order.
func (c *Corpus) Algorithms() []string { return core.Names() }

// BuildCorpus generates the datasets, the similarity graphs, and the
// tuned results of every algorithm, then applies the paper's cleaning
// rules: graphs whose best F1 across all algorithms is below 0.25 are
// noisy, and near-identical graphs from the same dataset are duplicates.
// It panics on unknown dataset ids (ids come from datagen.Specs or
// validated config); use BuildCorpusCtx for error returns and
// cancellation.
func BuildCorpus(cfg Config) *Corpus {
	corpus, err := BuildCorpusCtx(context.Background(), cfg)
	if err != nil {
		panic(err)
	}
	return corpus
}

// sweepUnit is one (graph × algorithm) cell of the experiment grid.
type sweepUnit struct {
	graphIdx, matcherIdx int
	g                    *simgraph.SimGraph
	gt                   *dataset.GroundTruth
}

// BuildCorpusCtx is BuildCorpus with cancellation: it fans the
// (graph × algorithm) sweep grid out over cfg.Parallelism workers and
// stops early (returning ctx.Err()) when the context is canceled.
// Results are deterministic — graphs stay in generation order (datasets
// in config order, similarity functions in taxonomy order) and each
// graph's results stay in core.Names() order — and identical to the
// serial path at a fixed seed.
func BuildCorpusCtx(ctx context.Context, cfg Config) (*Corpus, error) {
	corpus := &Corpus{
		Config: cfg,
		Specs:  map[string]datagen.Spec{},
		Tasks:  map[string]*dataset.Task{},
	}
	matchers := cfg.Matchers()

	// Phase 1: datasets and similarity graphs. Generation fans its row
	// kernels over the same worker budget as the sweep grid; its output
	// is deterministic at any parallelism.
	for _, id := range cfg.datasets() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		spec, err := datagen.SpecByID(id)
		if err != nil {
			return nil, err
		}
		task := spec.Generate(cfg.Seed, cfg.scale())
		corpus.Specs[id] = spec
		corpus.Tasks[id] = task
		graphs, gstats := simgraph.GenerateStats(task, spec.KeyAttrs,
			simgraph.Options{
				Families:    cfg.Families,
				Parallelism: cfg.Parallelism,
				Caches:      cfg.RepCaches,
			})
		for _, f := range simgraph.Families() {
			fs := gstats.Of(f)
			corpus.GenStats.Add(f, fs.Visited, fs.Skipped)
		}
		for _, sg := range graphs {
			corpus.Graphs = append(corpus.Graphs, GraphResult{
				Graph:    sg,
				Category: spec.Category,
				Results:  make([]eval.SweepResult, len(matchers)),
			})
		}
	}

	// Phase 2: the sweep grid. Each unit tunes one algorithm on one
	// graph; results land at fixed (graph, matcher) coordinates, so the
	// output order never depends on scheduling.
	units := make([]sweepUnit, 0, len(corpus.Graphs)*len(matchers))
	for gi := range corpus.Graphs {
		gr := &corpus.Graphs[gi]
		gt := corpus.Tasks[gr.Graph.Dataset].GT
		for mi := range matchers {
			units = append(units, sweepUnit{gi, mi, &gr.Graph, gt})
		}
	}
	workers := par.Workers(cfg.Parallelism)
	stop := func() bool { return ctx.Err() != nil }
	par.For(len(units), workers, stop,
		func(_, j int) {
			u := units[j]
			// SweepOpts clones the matcher internally, keeping the
			// stochastic matchers (BAH, QLM) private to one goroutine.
			// Stop is threaded into the sweep so cancellation latency is
			// bounded by one Match call, not a full 20-point sweep; the
			// partial results are discarded below on ctx.Err().
			corpus.Graphs[u.graphIdx].Results[u.matcherIdx] =
				eval.SweepOpts(u.g.G, u.gt, matchers[u.matcherIdx], eval.SweepOptions{
					Repeats:     cfg.repeats(),
					Parallelism: 1,
					Stop:        stop,
				})
		})
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if !cfg.SkipClean {
		corpus.clean()
	}
	return corpus, nil
}

// clean applies the noisy-graph and duplicate-graph rules of Section 5.
func (c *Corpus) clean() {
	// Rule: drop graphs where every algorithm scores F1 < 0.25.
	kept := c.Graphs[:0:0]
	for _, gr := range c.Graphs {
		noisy := true
		for _, r := range gr.Results {
			if r.Best.F1 >= 0.25 {
				noisy = false
				break
			}
		}
		if noisy {
			c.DroppedNoisy++
			continue
		}
		kept = append(kept, gr)
	}
	c.Graphs = kept

	// Rule: duplicate inputs — same dataset and edge count, while at
	// least two algorithms share their optimal threshold with nearly
	// identical effectiveness (differences below 0.2%).
	const tol = 0.002
	kept = c.Graphs[:0:0]
	type key struct {
		ds    string
		edges int
	}
	byKey := map[key][]GraphResult{}
	for _, gr := range c.Graphs {
		k := key{gr.Graph.Dataset, gr.Graph.G.NumEdges()}
		dup := false
		for _, prev := range byKey[k] {
			same := 0
			for i := range gr.Results {
				a, b := gr.Results[i], prev.Results[i]
				if a.BestT == b.BestT &&
					abs(a.Best.F1-b.Best.F1) < tol &&
					(abs(a.Best.Precision-b.Best.Precision) < tol ||
						abs(a.Best.Recall-b.Best.Recall) < tol) {
					same++
				}
			}
			if same >= 2 {
				dup = true
				break
			}
		}
		if dup {
			c.DroppedDupes++
			continue
		}
		byKey[k] = append(byKey[k], gr)
		kept = append(kept, gr)
	}
	c.Graphs = kept
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// ByFamily groups the corpus graphs by weight family.
func (c *Corpus) ByFamily() map[simgraph.Family][]GraphResult {
	out := map[simgraph.Family][]GraphResult{}
	for _, gr := range c.Graphs {
		out[gr.Graph.Family] = append(out[gr.Graph.Family], gr)
	}
	return out
}

// ByDataset groups the corpus graphs by dataset id.
func (c *Corpus) ByDataset() map[string][]GraphResult {
	out := map[string][]GraphResult{}
	for _, gr := range c.Graphs {
		out[gr.Graph.Dataset] = append(out[gr.Graph.Dataset], gr)
	}
	return out
}

// DatasetIDs returns the dataset ids present in the corpus, in D1..D10
// order.
func (c *Corpus) DatasetIDs() []string {
	present := map[string]bool{}
	for _, gr := range c.Graphs {
		present[gr.Graph.Dataset] = true
	}
	var ids []string
	for _, s := range datagen.Specs() {
		if present[s.ID] {
			ids = append(ids, s.ID)
		}
	}
	return ids
}

// algIndex maps an algorithm name to its column index.
func algIndex(name string) int {
	for i, n := range core.Names() {
		if n == name {
			return i
		}
	}
	return -1
}

// sortedFamilies returns the families present in the corpus in canonical
// order.
func (c *Corpus) sortedFamilies() []simgraph.Family {
	present := map[simgraph.Family]bool{}
	for _, gr := range c.Graphs {
		present[gr.Graph.Family] = true
	}
	var out []simgraph.Family
	for _, f := range simgraph.Families() {
		if present[f] {
			out = append(out, f)
		}
	}
	return out
}

// fmtDur renders a duration the way the paper's Table 6 does:
// milliseconds by default, seconds for long runs.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.1fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.0fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	}
}
