// Package eval implements the paper's evaluation methodology (Section 5):
// precision, recall and F-measure of a bipartite matching against the
// ground truth; the similarity-threshold sweep from 0.05 to 1.00 in steps
// of 0.05, selecting the largest threshold that achieves the best
// F-measure; and run-time measurement averaged over repeated executions.
package eval

import (
	"time"

	"github.com/ccer-go/ccer/internal/core"
	"github.com/ccer-go/ccer/internal/dataset"
	"github.com/ccer-go/ccer/internal/graph"
	"github.com/ccer-go/ccer/internal/par"
)

// Metrics are the paper's three effectiveness measures. Precision is the
// portion of output pairs that are true matches; recall the portion of
// true matches that are output; F1 their harmonic mean.
type Metrics struct {
	Precision float64
	Recall    float64
	F1        float64
}

// Evaluate scores a matching against the ground truth. Every division is
// guarded individually: precision is 0 for an empty output, recall is 0
// for an empty (or nil) ground truth, and F1 is 0 whenever precision and
// recall are both 0 — so no combination of empty inputs divides by zero
// or yields NaN.
func Evaluate(pairs []core.Pair, gt *dataset.GroundTruth) Metrics {
	correct := 0
	if gt != nil && gt.Len() > 0 {
		for _, p := range pairs {
			if gt.IsMatch(p.U, p.V) {
				correct++
			}
		}
	}
	var m Metrics
	if len(pairs) > 0 {
		m.Precision = float64(correct) / float64(len(pairs))
	}
	if gt != nil && gt.Len() > 0 {
		m.Recall = float64(correct) / float64(gt.Len())
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}

// Thresholds returns the paper's sweep grid: 0.05 to 1.00 in steps of
// 0.05.
func Thresholds() []float64 {
	out := make([]float64, 0, 20)
	for i := 1; i <= 20; i++ {
		out = append(out, float64(i)*0.05)
	}
	return out
}

// ThresholdPoint is the outcome of one sweep step.
type ThresholdPoint struct {
	T       float64
	Metrics Metrics
	Runtime time.Duration
}

// SweepResult is the outcome of tuning one algorithm on one similarity
// graph.
type SweepResult struct {
	Algorithm string
	// BestT is the largest threshold achieving the maximum F1, the
	// paper's optimal-threshold rule.
	BestT float64
	// Best holds the metrics at BestT.
	Best Metrics
	// Runtime is the mean run-time at BestT over the configured repeats.
	Runtime time.Duration
	// Points holds every sweep step in threshold order.
	Points []ThresholdPoint
}

// SweepOptions configures a threshold sweep.
type SweepOptions struct {
	// Repeats is how many times the matching at each threshold is timed
	// (the paper uses 10 for its run-time tables); values below 1 are
	// treated as 1. The repeat loop always runs sequentially inside one
	// worker, so Runtime stays a per-execution mean even under
	// parallelism.
	Repeats int
	// Parallelism is the number of worker goroutines evaluating sweep
	// points. 1 (or any negative value) runs serially; 0 means
	// runtime.NumCPU(). Effectiveness results are identical at any
	// parallelism, provided BAH's step cap binds before its wall-clock
	// cap (true for the defaults; a binding deadline makes BAH
	// timing-dependent even serially). Run-time measurements are subject
	// to scheduling noise from concurrent workers, so use Parallelism 1
	// when reproducing the paper's timing tables.
	Parallelism int
	// Stop, when non-nil, is polled between sweep points and between the
	// timed repeats inside a point; once it returns true no further
	// Match calls start (the in-flight one finishes). A sweep cut short
	// this way returns partial results — callers that cancel should
	// discard them. It bounds cancellation latency to one Match call
	// instead of a full 20-point, Repeats-deep sweep.
	Stop func() bool
}

func (o SweepOptions) repeats() int {
	if o.Repeats < 1 {
		return 1
	}
	return o.Repeats
}

// Sweep runs the matcher across the threshold grid serially and applies
// the paper's selection rule. repeats controls how many times the
// matching at each threshold is timed; values below 1 are treated as 1.
func Sweep(g *graph.Bipartite, gt *dataset.GroundTruth, m core.Matcher, repeats int) SweepResult {
	return SweepOpts(g, gt, m, SweepOptions{Repeats: repeats, Parallelism: 1})
}

// sweepPoint evaluates one threshold: repeats timed sequential runs, then
// effectiveness scoring of the final matching. stop (may be nil) is
// polled between repeats so a tripped cancellation wastes at most one
// Match call; the mean is taken over the runs that actually happened.
func sweepPoint(g *graph.Bipartite, gt *dataset.GroundTruth, m core.Matcher, t float64, repeats int, stop func() bool) ThresholdPoint {
	var pairs []core.Pair
	start := time.Now()
	done := 0
	for r := 0; r < repeats; r++ {
		pairs = m.Match(g, t)
		done++
		if stop != nil && stop() {
			break
		}
	}
	elapsed := time.Since(start) / time.Duration(done)
	return ThresholdPoint{T: t, Metrics: Evaluate(pairs, gt), Runtime: elapsed}
}

// selectBest applies the paper's selection rule over completed points:
// the largest threshold with the highest F1 (>= keeps later, larger
// thresholds on ties). Points must be in ascending threshold order.
func selectBest(algorithm string, points []ThresholdPoint) SweepResult {
	res := SweepResult{Algorithm: algorithm, BestT: -1, Points: points}
	for _, pt := range points {
		if res.BestT < 0 || pt.Metrics.F1 >= res.Best.F1 {
			res.BestT = pt.T
			res.Best = pt.Metrics
			res.Runtime = pt.Runtime
		}
	}
	return res
}

// SweepOpts runs the matcher across the threshold grid, fanning the sweep
// points over opts.Parallelism workers, and applies the paper's selection
// rule. Each worker gets its own clone of the matcher (core.Clone), and
// the result is identical to the serial sweep regardless of parallelism:
// points land in threshold order and the selection rule runs over the
// ordered slice.
func SweepOpts(g *graph.Bipartite, gt *dataset.GroundTruth, m core.Matcher, opts SweepOptions) SweepResult {
	ts := Thresholds()
	points := make([]ThresholdPoint, len(ts))
	repeats := opts.repeats()
	workers := par.Workers(opts.Parallelism)
	clones := core.NewCloneCache([]core.Matcher{m}, workers)
	par.For(len(ts), workers, opts.Stop, func(w, i int) {
		points[i] = sweepPoint(g, gt, clones.Get(w, 0), ts[i], repeats, opts.Stop)
	})
	return selectBest(m.Name(), points)
}

// SweepAllOpts tunes every matcher on the graph, fanning the full
// (matcher × threshold) grid over opts.Parallelism workers. Results come
// back in matcher order with points in threshold order, identical to the
// serial path.
func SweepAllOpts(g *graph.Bipartite, gt *dataset.GroundTruth, matchers []core.Matcher, opts SweepOptions) []SweepResult {
	out := make([]SweepResult, len(matchers))
	ts := Thresholds()
	repeats := opts.repeats()
	workers := par.Workers(opts.Parallelism)
	points := make([][]ThresholdPoint, len(matchers))
	for i := range points {
		points[i] = make([]ThresholdPoint, len(ts))
	}
	clones := core.NewCloneCache(matchers, workers)
	par.For(len(matchers)*len(ts), workers, opts.Stop, func(w, j int) {
		mi, ti := j/len(ts), j%len(ts)
		points[mi][ti] = sweepPoint(g, gt, clones.Get(w, mi), ts[ti], repeats, opts.Stop)
	})
	for i, m := range matchers {
		out[i] = selectBest(m.Name(), points[i])
	}
	return out
}
