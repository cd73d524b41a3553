package ccer

// Benchmark harness: one benchmark per table and figure of the paper,
// plus per-algorithm matching kernels and the ablation benches called out
// in DESIGN.md. The table/figure benches run their exp runner on a shared
// corpus built once per process; BenchmarkCorpusBuild times the expensive
// corpus construction itself.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// For the full-scale study (all ten datasets, larger scale, 10 timing
// repeats) use cmd/erbench instead.

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/ccer-go/ccer/internal/algo"
	"github.com/ccer-go/ccer/internal/core"
	"github.com/ccer-go/ccer/internal/datagen"
	"github.com/ccer-go/ccer/internal/exp"
	"github.com/ccer-go/ccer/internal/graph"
	"github.com/ccer-go/ccer/internal/obs"
	"github.com/ccer-go/ccer/internal/simgraph"
)

var (
	benchOnce   sync.Once
	benchCorpus *exp.Corpus
)

// benchConfig keeps the bench corpus small: three datasets covering the
// balanced, one-sided and scarce categories over all four weight
// families.
func benchConfig() exp.Config {
	return exp.Config{
		Seed:     42,
		Scale:    0.02,
		Datasets: []string{"D1", "D2", "D3"},
		BAHSteps: 2000,
		BAHTime:  5 * time.Second,
	}
}

// buildCorpus builds a corpus without cancellation, failing the
// benchmark on an error.
func buildCorpus(b *testing.B, cfg exp.Config) *exp.Corpus {
	b.Helper()
	c, err := exp.BuildCorpusCtx(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func corpus(b *testing.B) *exp.Corpus {
	b.Helper()
	benchOnce.Do(func() { benchCorpus = buildCorpus(b, benchConfig()) })
	return benchCorpus
}

// BenchmarkCorpusBuild measures the full pipeline: dataset generation,
// similarity graph corpus, threshold sweeps and cleaning for one dataset.
func BenchmarkCorpusBuild(b *testing.B) {
	cfg := benchConfig()
	cfg.Datasets = []string{"D1"}
	for i := 0; i < b.N; i++ {
		buildCorpus(b, cfg)
	}
}

// BenchmarkSimGraphGenerate times similarity-graph generation alone —
// the corpus-build fast path (per-entity representations, candidate
// enumeration, row-parallel kernels) without the threshold sweeps — on
// the same D1 task BenchmarkCorpusBuild starts from.
func BenchmarkSimGraphGenerate(b *testing.B) {
	spec, err := datagen.SpecByID("D1")
	if err != nil {
		b.Fatal(err)
	}
	task := spec.Generate(42, 0.02)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simgraph.Generate(task, spec.KeyAttrs, simgraph.Options{})
	}
}

// BenchmarkSimGraphGenerateTraced is BenchmarkSimGraphGenerate with a
// live stage trace attached: the instrumented side of the
// observability-overhead comparison (the untraced benchmark above is the
// baseline; spans are per pipeline stage, never per pair, so the two
// should be within noise of each other).
func BenchmarkSimGraphGenerateTraced(b *testing.B) {
	spec, err := datagen.SpecByID("D1")
	if err != nil {
		b.Fatal(err)
	}
	task := spec.Generate(42, 0.02)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simgraph.Generate(task, spec.KeyAttrs, simgraph.Options{Trace: obs.NewTrace("bench")})
	}
}

// BenchmarkSimGraphGenerateWorkers is BenchmarkSimGraphGenerate across
// worker counts: the many-core scaling run of the row-parallel
// generation kernels (output is byte-identical at any setting, so the
// sub-benchmarks measure pure scheduling behaviour).
func BenchmarkSimGraphGenerateWorkers(b *testing.B) {
	spec, err := datagen.SpecByID("D1")
	if err != nil {
		b.Fatal(err)
	}
	task := spec.Generate(42, 0.02)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				simgraph.Generate(task, spec.KeyAttrs, simgraph.Options{Parallelism: workers})
			}
		})
	}
}

// BenchmarkCorpusBuildWorkers is BenchmarkCorpusBuild across worker
// counts (generation + sweeps + cleaning for D1).
func BenchmarkCorpusBuildWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Datasets = []string{"D1"}
			cfg.Parallelism = workers
			for i := 0; i < b.N; i++ {
				buildCorpus(b, cfg)
			}
		})
	}
}

func BenchmarkTable2(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Table2()
	}
}

func BenchmarkTable3(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = c.Table3()
	}
}

func BenchmarkTable4(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = c.Table4()
	}
}

func BenchmarkTable5(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = c.Table5()
	}
}

func BenchmarkTable6(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = c.Table6()
	}
}

func BenchmarkTable7(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = c.Table7()
	}
}

func BenchmarkTable8(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = c.Table8()
	}
}

func BenchmarkTable9(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = c.Table9()
	}
}

func BenchmarkFig2(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Fig2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = c.Fig3()
	}
}

func BenchmarkFig4(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = c.Fig4()
	}
}

func BenchmarkFig5(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = c.Fig5()
	}
}

func BenchmarkFig78(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Fig7(); err != nil {
			b.Fatal(err)
		}
		if _, _, err := c.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = c.Fig9()
	}
}

func BenchmarkFig10(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = c.Fig10()
	}
}

// benchGraph builds a random bipartite graph with roughly the requested
// number of edges.
func benchGraph(nodes, edges int) *graph.Bipartite {
	rng := rand.New(rand.NewSource(7))
	bld := graph.NewBuilder(nodes, nodes)
	for i := 0; i < edges; i++ {
		bld.Add(int32(rng.Intn(nodes)), int32(rng.Intn(nodes)), rng.Float64())
	}
	g, err := bld.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// BenchmarkMatcher exercises the raw matching kernels per algorithm and
// graph size — the data behind the complexity discussion of QT(2).
func BenchmarkMatcher(b *testing.B) {
	sizes := []struct {
		nodes, edges int
	}{
		{500, 5_000},
		{2_000, 50_000},
		{5_000, 200_000},
	}
	matchers := []core.Matcher{
		core.CNC{}, core.RSR{}, core.RCA{},
		core.BAH{Seed: 1, MaxSteps: 10000, MaxDuration: 5 * time.Second},
		core.BMC{Basis: core.BasisAuto}, core.EXC{}, core.KRC{}, core.UMC{},
	}
	for _, sz := range sizes {
		g := benchGraph(sz.nodes, sz.edges)
		for _, m := range matchers {
			b.Run(fmt.Sprintf("%s/e%d", m.Name(), sz.edges), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.Match(g, 0.5)
				}
			})
		}
	}
}

var (
	coldOnce   sync.Once
	coldGraphs []*graph.Bipartite
)

// matchColdGraphs returns loadbench's match-cold graphs, the six SB-SEM
// similarity graphs of D2 at seed 1 and scale 0.5 (538 x 538 entities,
// about 248k edges each), warmed as match-cold's set-up warms them: one
// match of every algorithm at threshold 0.99 builds each graph's V2
// side and BAH's pair lookup.
func matchColdGraphs() []*graph.Bipartite {
	coldOnce.Do(func() {
		spec, err := datagen.SpecByID("D2")
		if err != nil {
			panic(err)
		}
		task := spec.Generate(1, 0.5)
		opts := simgraph.Options{Families: []simgraph.Family{simgraph.SBSem}, KeepNoMatchGraphs: true}
		for _, sg := range simgraph.Generate(task, spec.KeyAttrs, opts) {
			for _, m := range paperMatchers() {
				m.Match(sg.G, 0.99)
			}
			coldGraphs = append(coldGraphs, sg.G)
		}
	})
	return coldGraphs
}

// BenchmarkGenerateCold times the generation of match-cold's graphs, the
// SB-SEM family of D2 at seed 1 and scale 0.5, on two workers with fresh
// representation caches each iteration, as a booting node generates
// them: the semantic rows kernel (cosine, Euclidean and relaxed WMS over
// 538 x 538 pairs and two models) dominates it.
func BenchmarkGenerateCold(b *testing.B) {
	spec, err := datagen.SpecByID("D2")
	if err != nil {
		b.Fatal(err)
	}
	task := spec.Generate(1, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graphsSink = len(simgraph.Generate(task, spec.KeyAttrs, simgraph.Options{
			Families:          []simgraph.Family{simgraph.SBSem},
			KeepNoMatchGraphs: true,
			Parallelism:       2,
			Caches:            simgraph.NewRepCaches(2),
		}))
	}
}

var graphsSink int

// paperMatchers returns the paper's eight matchers in presentation
// order, BAH seeded 1.
func paperMatchers() []core.Matcher {
	ms, err := algo.AllByName(core.Names(), 1)
	if err != nil {
		panic(err)
	}
	return ms
}

// BenchmarkMatchersCold is the paper's QT(1) as loadbench's match-cold
// workload serves it: one algorithm per sub-benchmark, the i-th call on
// cold graph i mod 6 at the i-th point of match-cold's golden-ratio
// threshold sequence over [0.1, 0.6).
func BenchmarkMatchersCold(b *testing.B) {
	gs := matchColdGraphs()
	for _, m := range paperMatchers() {
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, frac := math.Modf(float64(i) * 0.6180339887498949)
				m.Match(gs[i%len(gs)], 0.1+0.5*frac)
			}
		})
	}
}

// BenchmarkEdgeListCold is the store path's serialization cost on
// match-cold's graphs: Checksum, which every stored graph pays, and
// WriteEdgeList, which GET ?format=edgelist and repair streams pay.
func BenchmarkEdgeListCold(b *testing.B) {
	gs := matchColdGraphs()
	b.Run("Checksum", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			checksumSink = gs[i%len(gs)].Checksum()
		}
	})
	b.Run("WriteEdgeList", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := gs[i%len(gs)].WriteEdgeList(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}

var checksumSink uint64

// BenchmarkGraphBuildCold rebuilds match-cold's six graphs from their
// canonical (U,V)-ordered edges through graph.NewBuilder and Build, the
// construction every stored graph pays: the builder's copy, the stable
// by-weight permutation and the V1 rows' layout. One op builds all six.
func BenchmarkGraphBuildCold(b *testing.B) {
	gs := matchColdGraphs()
	edges := make([][]graph.Edge, len(gs))
	for k, g := range gs {
		edges[k] = g.Edges()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, g := range gs {
			bl := graph.NewBuilder(g.N1(), g.N2())
			bl.Reserve(len(edges[k]))
			for _, e := range edges[k] {
				bl.Add(e.U, e.V, e.W)
			}
			built, err := bl.Build()
			if err != nil {
				b.Fatal(err)
			}
			graphsSink = built.NumEdges()
		}
	}
}

// BenchmarkBaselines times the exact baselines for comparison with the
// paper's complexity-based exclusion of the Hungarian algorithm.
func BenchmarkBaselines(b *testing.B) {
	g := benchGraph(500, 5_000)
	for _, m := range []core.Matcher{core.Hungarian{}, core.Auction{}} {
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.Match(g, 0.5)
			}
		})
	}
}

// BenchmarkAblationBMCBasis compares BMC's basis-side options (DESIGN.md
// ablation: the paper tunes this per dataset).
func BenchmarkAblationBMCBasis(b *testing.B) {
	g := benchGraph(2_000, 50_000)
	for _, cfg := range []struct {
		name  string
		basis core.Basis
	}{
		{"V1", core.BasisV1}, {"V2", core.BasisV2}, {"Auto", core.BasisAuto},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			m := core.BMC{Basis: cfg.basis}
			for i := 0; i < b.N; i++ {
				m.Match(g, 0.3)
			}
		})
	}
}

// BenchmarkAblationBAHSteps sweeps BAH's step cap (DESIGN.md ablation).
func BenchmarkAblationBAHSteps(b *testing.B) {
	g := benchGraph(1_000, 20_000)
	for _, steps := range []int{1_000, 10_000, 50_000} {
		b.Run(fmt.Sprintf("steps%d", steps), func(b *testing.B) {
			m := core.BAH{Seed: 1, MaxSteps: steps, MaxDuration: time.Minute}
			for i := 0; i < b.N; i++ {
				m.Match(g, 0.3)
			}
		})
	}
}

// benchD2Config is the D2 grid used by the serial-vs-parallel engine
// benchmarks: one dataset, all four weight families, the eight paper
// algorithms.
func benchD2Config(parallelism int) exp.Config {
	cfg := benchConfig()
	cfg.Datasets = []string{"D2"}
	cfg.Parallelism = parallelism
	return cfg
}

// BenchmarkD2GridSerial times the full D2 experiment grid (every
// similarity graph × every algorithm × 20 thresholds) on one worker.
func BenchmarkD2GridSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		buildCorpus(b, benchD2Config(1))
	}
}

// BenchmarkD2GridParallel is BenchmarkD2GridSerial on runtime.NumCPU()
// workers. Comparing the two shows the engine's wall-clock speedup; on a
// machine with >=4 cores the parallel grid runs >=2x faster.
func BenchmarkD2GridParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		buildCorpus(b, benchD2Config(0))
	}
}

// sweepAllBenchInput builds the inputs for the SweepAll benchmarks: a
// random graph and a synthetic diagonal ground truth.
func sweepAllBenchInput() (*graph.Bipartite, *GroundTruth) {
	g := benchGraph(1_000, 20_000)
	pairs := make([][2]int32, 1_000)
	for i := range pairs {
		pairs[i] = [2]int32{int32(i), int32(i)}
	}
	return g, NewGroundTruth(pairs)
}

func benchSweepAll(b *testing.B, parallelism int) {
	b.Helper()
	g, gt := sweepAllBenchInput()
	algorithms := Algorithms()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SweepAll(g, gt, algorithms, Options{Parallelism: parallelism}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepAllSerial times tuning all eight algorithms on one graph
// with a single worker.
func BenchmarkSweepAllSerial(b *testing.B) { benchSweepAll(b, 1) }

// BenchmarkSweepAllParallel is BenchmarkSweepAllSerial with the
// (algorithm × threshold) grid fanned over all CPUs.
func BenchmarkSweepAllParallel(b *testing.B) { benchSweepAll(b, 0) }

// BenchmarkMatchConcurrent times running all eight algorithms at one
// threshold, serial vs parallel.
func BenchmarkMatchConcurrent(b *testing.B) {
	g := benchGraph(2_000, 50_000)
	algorithms := Algorithms()
	for _, cfg := range []struct {
		name        string
		parallelism int
	}{
		{"Serial", 1}, {"Parallel", 0},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := MatchConcurrent(g, algorithms, 0.5, Options{Parallelism: cfg.parallelism}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweep measures a full 20-point threshold sweep of UMC, the
// unit of work behind every corpus entry.
func BenchmarkSweep(b *testing.B) {
	c := corpus(b)
	task := c.Tasks["D2"]
	var g *graph.Bipartite
	for _, gr := range c.Graphs {
		if gr.Graph.Dataset == "D2" {
			g = gr.Graph.G
			break
		}
	}
	if g == nil {
		b.Fatal("no D2 graph in corpus")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SweepThreshold(g, task.GT, core.UMC{}, 1)
	}
}

// BenchmarkAblationThresholdPolicy runs the threshold-selection ablation
// (oracle vs unsupervised estimate vs fixed) on the shared corpus.
func BenchmarkAblationThresholdPolicy(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = c.AblationThreshold()
	}
}

// BenchmarkBlocking measures the blocking substrate on a generated
// dataset: token blocking, purging, filtering, candidate extraction.
func BenchmarkBlocking(b *testing.B) {
	task, err := GenerateDataset("D8", 5, 0.02)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blocks := TokenBlocking(task.V1, task.V2)
		blocks = PurgeBlocks(blocks, task.Comparisons()/10)
		blocks = FilterBlocks(blocks, 0.5)
		BlockCandidates(blocks)
	}
}

// BenchmarkEstimateThreshold measures the unsupervised threshold
// estimator.
func BenchmarkEstimateThreshold(b *testing.B) {
	g := benchGraph(2_000, 50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EstimateThreshold(g)
	}
}

// BenchmarkQLearningMatcher measures the future-work Q-learning matcher
// against the same graph sizes as BenchmarkMatcher.
func BenchmarkQLearningMatcher(b *testing.B) {
	g := benchGraph(2_000, 50_000)
	m := NewQLearningMatcher(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(g, 0.5)
	}
}
