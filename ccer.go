// Package ccer is the public API of a Go implementation of the bipartite
// graph matching study of Papadakis, Efthymiou, Thanos and Hassanzadeh,
// "Bipartite Graph Matching Algorithms for Clean-Clean Entity Resolution:
// An Empirical Evaluation" (EDBT 2022).
//
// The package covers the full Clean-Clean ER matching step: build a
// weighted bipartite similarity graph between two clean entity
// collections, run one of the paper's eight matching algorithms (or the
// exact Hungarian / auction baselines) at a similarity threshold, and
// evaluate the resulting 1-1 matching against a ground truth. It also
// exposes the paper's string/vector/graph/embedding similarity functions,
// the synthetic analogs of its ten benchmark datasets, and the threshold
// sweep used to tune every algorithm.
//
// Quick start:
//
//	b := ccer.NewGraphBuilder(len(src), len(dst))
//	for i, s := range src {
//		for j, d := range dst {
//			if sim := ccer.JaroSimilarity(s, d); sim > 0 {
//				b.Add(int32(i), int32(j), sim)
//			}
//		}
//	}
//	g, err := b.Build()
//	// ...
//	pairs, err := ccer.Match(g, "UMC", 0.5)
//
// The subpackages under internal/ contain the full machinery; this
// package re-exports the pieces a downstream user needs.
package ccer

import (
	"context"
	"fmt"
	"iter"
	"time"

	"github.com/ccer-go/ccer/internal/algo"
	"github.com/ccer-go/ccer/internal/core"
	"github.com/ccer-go/ccer/internal/datagen"
	"github.com/ccer-go/ccer/internal/dataset"
	"github.com/ccer-go/ccer/internal/eval"
	"github.com/ccer-go/ccer/internal/graph"
	"github.com/ccer-go/ccer/internal/par"
	"github.com/ccer-go/ccer/internal/simgraph"
	"github.com/ccer-go/ccer/internal/strsim"
)

// Core graph and matching types, re-exported from the implementation
// packages.
type (
	// Graph is a weighted bipartite similarity graph between two clean
	// entity collections.
	Graph = graph.Bipartite
	// GraphBuilder accumulates edges for a Graph.
	GraphBuilder = graph.Builder
	// Edge is a weighted edge of a similarity graph.
	Edge = graph.Edge
	// NodeID indexes a node within one side of the graph.
	NodeID = graph.NodeID
	// Pair is one matched entity pair.
	Pair = core.Pair
	// Matcher is a bipartite graph matching algorithm.
	Matcher = core.Matcher
	// Metrics holds precision, recall and F-measure.
	Metrics = eval.Metrics
	// SweepResult is the outcome of tuning a matcher's threshold.
	SweepResult = eval.SweepResult
	// Profile is an entity profile (attribute-value pairs).
	Profile = dataset.Profile
	// Collection is a clean, duplicate-free entity collection.
	Collection = dataset.Collection
	// GroundTruth is the set of true matches between two collections.
	GroundTruth = dataset.GroundTruth
	// Task bundles two collections with their ground truth.
	Task = dataset.Task
)

// NewGraphBuilder returns a builder for a bipartite graph with n1 and n2
// nodes on the two sides.
func NewGraphBuilder(n1, n2 int) *GraphBuilder { return graph.NewBuilder(n1, n2) }

// NewGroundTruth builds a ground truth from (i, j) index pairs.
func NewGroundTruth(pairs [][2]int32) *GroundTruth { return dataset.NewGroundTruth(pairs) }

// Algorithms lists the paper's eight algorithm names in presentation
// order: CNC, RSR, RCA, BAH, BMC, EXC, KRC, UMC.
func Algorithms() []string { return core.Names() }

// NewMatcher returns the named matching algorithm with its default
// configuration. Besides the paper's eight, "HUN" (Hungarian) and "AUC"
// (auction) exact baselines and "QLM" (the future-work Q-learning
// matcher) are available. seed configures the stochastic BAH and QLM
// algorithms and is ignored by the others. Resolution goes through the
// internal/algo registry, the same one the erserve service uses, so the
// two never drift.
func NewMatcher(name string, seed int64) (Matcher, error) {
	m, err := algo.ByName(name, seed)
	if err != nil {
		return nil, fmt.Errorf("ccer: %w", err)
	}
	return m, nil
}

// Match runs the named algorithm on the graph with similarity threshold
// t, returning a 1-1 matching that only uses edges with weight above t.
func Match(g *Graph, algorithm string, t float64) ([]Pair, error) {
	m, err := NewMatcher(algorithm, 1)
	if err != nil {
		return nil, err
	}
	return m.Match(g, t), nil
}

// Evaluate scores a matching against the ground truth.
func Evaluate(pairs []Pair, gt *GroundTruth) Metrics { return eval.Evaluate(pairs, gt) }

// SweepThreshold tunes the matcher over the paper's threshold grid
// (0.05..1.00, step 0.05), selecting the largest threshold with the best
// F-measure. repeats controls run-time averaging (use 1 unless timing).
func SweepThreshold(g *Graph, gt *GroundTruth, m Matcher, repeats int) SweepResult {
	return eval.Sweep(g, gt, m, repeats)
}

// Options configures the concurrent entry points SweepAll and
// MatchConcurrent.
type Options struct {
	// Parallelism is the number of worker goroutines. 0 means
	// runtime.NumCPU(); 1 or any negative value runs serially.
	// Effectiveness results are identical at any parallelism as long as
	// BAH's step cap binds before its wall-clock cap (true for the
	// defaults; a binding deadline makes BAH timing-dependent even
	// serially). Run-time measurements pick up scheduler noise from
	// concurrent workers, so use 1 when timing.
	Parallelism int
	// Repeats is the number of timed executions per threshold in
	// SweepAll (values below 1 mean 1). Ignored by MatchConcurrent.
	Repeats int
	// Seed configures the stochastic BAH algorithm (and the Q-learning
	// matcher, if requested by name); 0 means 1, matching Match.
	Seed int64
	// Context, when non-nil, cancels the concurrent entry points: once
	// it is done no further Match call starts (in-flight ones finish,
	// bounding cancellation latency to one matching) and the entry point
	// returns the context's error instead of partial results. A nil
	// Context never cancels. The erserve job queue relies on this to
	// abort sweeps on job cancellation and server shutdown.
	Context context.Context
}

// stop adapts the optional Context to the polling Stop hook of the
// internal/par pool.
func (o Options) stop() func() bool {
	if o.Context == nil {
		return nil
	}
	return func() bool { return o.Context.Err() != nil }
}

// err returns the context's cancellation error, if any.
func (o Options) err() error {
	if o.Context == nil {
		return nil
	}
	return o.Context.Err()
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// SweepAll tunes every named algorithm on the graph, fanning the full
// (algorithm × threshold) grid over opts.Parallelism workers. Results
// come back in input order with sweep points in threshold order, and are
// identical to the serial path at a fixed seed: each worker operates on a
// private clone of the stochastic matchers, and the timed repeat runs
// stay sequential inside one worker so SweepResult.Runtime remains a
// per-execution mean.
func SweepAll(g *Graph, gt *GroundTruth, algorithms []string, opts Options) ([]SweepResult, error) {
	ms, err := algo.AllByName(algorithms, opts.seed())
	if err != nil {
		return nil, fmt.Errorf("ccer: %w", err)
	}
	results := eval.SweepAllOpts(g, gt, ms, eval.SweepOptions{
		Repeats:     opts.Repeats,
		Parallelism: opts.Parallelism,
		Stop:        opts.stop(),
	})
	if err := opts.err(); err != nil {
		// A cut-short sweep holds partial, misleading results; drop them.
		return nil, err
	}
	return results, nil
}

// MatchResult couples one algorithm with its matching.
type MatchResult struct {
	Algorithm string
	Pairs     []Pair
}

// MatchConcurrent runs the named algorithms on the graph at threshold t
// across opts.Parallelism workers, returning one result per algorithm in
// input order. Output is deterministic: every matcher in this module
// keeps its mutable state local to a Match call, and each algorithm runs
// on exactly one worker, so the pairs are identical to len(algorithms)
// sequential Match calls.
func MatchConcurrent(g *Graph, algorithms []string, t float64, opts Options) ([]MatchResult, error) {
	ms, err := algo.AllByName(algorithms, opts.seed())
	if err != nil {
		return nil, fmt.Errorf("ccer: %w", err)
	}
	out := make([]MatchResult, len(ms))
	// ms is private to this call and each index runs on exactly one
	// worker, so no cloning is needed here.
	par.For(len(ms), par.Workers(opts.Parallelism), opts.stop(), func(_, i int) {
		out[i] = MatchResult{Algorithm: ms[i].Name(), Pairs: ms[i].Match(g, t)}
	})
	if err := opts.err(); err != nil {
		return nil, err
	}
	return out, nil
}

// SimilarityFunc scores the similarity of two strings in [0,1].
type SimilarityFunc = strsim.Func

// StringSimilarities returns the paper's sixteen schema-based syntactic
// similarity measures by name (seven character-level, nine token-level).
func StringSimilarities() map[string]SimilarityFunc { return strsim.AllMeasures() }

// JaroSimilarity is the Jaro similarity, a convenient default for short
// names.
func JaroSimilarity(a, b string) float64 { return strsim.Jaro(a, b) }

// TokenJaccard is the Jaccard similarity over lower-cased word tokens, a
// convenient default for titles and descriptions.
func TokenJaccard(a, b string) float64 {
	return strsim.Jaccard(strsim.Tokenize(a), strsim.Tokenize(b))
}

// BuildGraph constructs a similarity graph by applying sim to every
// cross-pair of the two text slices and keeping scores above minSim.
// For large collections prefer the representation-model pipelines (see
// GenerateGraphs), which use inverted indexes instead of all pairs.
func BuildGraph(texts1, texts2 []string, sim SimilarityFunc, minSim float64) (*Graph, error) {
	return scorePairs(texts1, texts2, sim, minSim, func(yield func(i, j int32) bool) {
		for i := range texts1 {
			for j := range texts2 {
				if !yield(int32(i), int32(j)) {
					return
				}
			}
		}
	})
}

// scorePairs is the pair loop of the graph builders that take a user
// similarity function: sim over each (i, j) pairs yields, in order,
// keeping scores above minSim.
func scorePairs(texts1, texts2 []string, sim SimilarityFunc, minSim float64, pairs iter.Seq2[int32, int32]) (*Graph, error) {
	b := graph.NewBuilder(len(texts1), len(texts2))
	for i, j := range pairs {
		if w := sim(texts1[i], texts2[j]); w > minSim {
			b.Add(i, j, w)
		}
	}
	return b.Build()
}

// Dataset identifiers of the paper's ten benchmarks, reproduced as
// synthetic analogs (see DESIGN.md for the substitution rationale).
func Datasets() []string {
	ids := make([]string, 0, 10)
	for _, s := range datagen.Specs() {
		ids = append(ids, s.ID)
	}
	return ids
}

// GenerateDataset builds the synthetic analog of the identified dataset
// ("D1".."D10") at the given scale (1.0 = the paper's full Table 2
// sizes). The same (seed, scale) always yields the same task.
func GenerateDataset(id string, seed int64, scale float64) (*Task, error) {
	spec, err := datagen.SpecByID(id)
	if err != nil {
		return nil, err
	}
	return spec.Generate(seed, scale), nil
}

// KeyAttributes returns the high-coverage, high-distinctiveness
// attributes the paper uses for schema-based similarity on the dataset.
func KeyAttributes(id string) ([]string, error) {
	spec, err := datagen.SpecByID(id)
	if err != nil {
		return nil, err
	}
	return spec.KeyAttrs, nil
}

// WeightFamily identifies one of the paper's four types of edge weights.
type WeightFamily = simgraph.Family

// WeightFamilies returns the four families: schema-based syntactic,
// schema-agnostic syntactic, schema-based semantic, schema-agnostic
// semantic.
func WeightFamilies() []WeightFamily { return simgraph.Families() }

// SimilarityGraph is one generated similarity graph with its provenance.
type SimilarityGraph = simgraph.SimGraph

// GenerateGraphs applies the paper's full similarity-function taxonomy to
// a task, producing the min-max-normalized similarity graph corpus
// (Section 4-5). keyAttrs selects the schema-based attributes; families
// restricts the weight families (nil = all four).
func GenerateGraphs(task *Task, keyAttrs []string, families []WeightFamily) []SimilarityGraph {
	return simgraph.Generate(task, keyAttrs, simgraph.Options{Families: families})
}

// BAHConfig returns a Best Assignment Heuristic matcher with explicit
// caps, for callers that need tighter bounds than the paper's defaults
// of 10,000 steps and 2 minutes.
func BAHConfig(seed int64, maxSteps int, maxDuration time.Duration) Matcher {
	return core.BAH{Seed: seed, MaxSteps: maxSteps, MaxDuration: maxDuration}
}
