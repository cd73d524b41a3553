package eval

import (
	"math/rand"
	"testing"

	"github.com/ccer-go/ccer/internal/algo"
	"github.com/ccer-go/ccer/internal/core"
	"github.com/ccer-go/ccer/internal/dataset"
	"github.com/ccer-go/ccer/internal/graph"
)

// randomSweepInput builds a reproducible random graph and diagonal ground
// truth for determinism tests.
func randomSweepInput(t *testing.T, seed int64) (*graph.Bipartite, *dataset.GroundTruth) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 60
	b := graph.NewBuilder(n, n)
	for i := 0; i < 900; i++ {
		b.Add(int32(rng.Intn(n)), int32(rng.Intn(n)), rng.Float64())
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([][2]int32, n)
	for i := range pairs {
		pairs[i] = [2]int32{int32(i), int32(i)}
	}
	return g, dataset.NewGroundTruth(pairs)
}

// stripRuntimes zeroes the wall-clock fields, the only part of a sweep
// result that legitimately differs between runs.
func stripRuntimes(rs []SweepResult) []SweepResult {
	out := make([]SweepResult, len(rs))
	for i, r := range rs {
		r.Runtime = 0
		pts := make([]ThresholdPoint, len(r.Points))
		for j, p := range r.Points {
			p.Runtime = 0
			pts[j] = p
		}
		r.Points = pts
		out[i] = r
	}
	return out
}

func equalSweepResults(t *testing.T, serial, parallel []SweepResult) {
	t.Helper()
	s, p := stripRuntimes(serial), stripRuntimes(parallel)
	if len(s) != len(p) {
		t.Fatalf("result count: serial %d, parallel %d", len(s), len(p))
	}
	for i := range s {
		a, b := s[i], p[i]
		if a.Algorithm != b.Algorithm || a.BestT != b.BestT || a.Best != b.Best {
			t.Fatalf("%s: serial best (t=%v, %+v), parallel best (t=%v, %+v)",
				a.Algorithm, a.BestT, a.Best, b.BestT, b.Best)
		}
		for j := range a.Points {
			if a.Points[j] != b.Points[j] {
				t.Fatalf("%s point %d: serial %+v, parallel %+v",
					a.Algorithm, j, a.Points[j], b.Points[j])
			}
		}
	}
}

// TestSweepOptsParallelMatchesSerial asserts that the parallel sweep is
// indistinguishable from the serial one (modulo wall-clock), including
// for the stochastic BAH at a fixed seed.
func TestSweepOptsParallelMatchesSerial(t *testing.T) {
	g, gt := randomSweepInput(t, 11)
	for _, m := range []core.Matcher{core.UMC{}, core.KRC{}, core.NewBAH(7)} {
		serial := SweepOpts(g, gt, m, SweepOptions{Parallelism: 1})
		for _, workers := range []int{2, 4, 16} {
			parallel := SweepOpts(g, gt, m, SweepOptions{Parallelism: workers})
			equalSweepResults(t,
				[]SweepResult{serial}, []SweepResult{parallel})
		}
	}
}

// TestSweepAllOptsParallelMatchesSerial runs the full eight-algorithm
// grid serial vs parallel at a fixed seed.
func TestSweepAllOptsParallelMatchesSerial(t *testing.T) {
	g, gt := randomSweepInput(t, 23)
	matchers, err := algo.AllByName(core.Names(), 42)
	if err != nil {
		t.Fatal(err)
	}
	serial := SweepAllOpts(g, gt, matchers, SweepOptions{Parallelism: 1})
	for _, workers := range []int{2, 8, 0} {
		parallel := SweepAllOpts(g, gt, matchers, SweepOptions{Parallelism: workers})
		equalSweepResults(t, serial, parallel)
	}
}

// countingMatcher counts Match calls so tests can observe how many sweep
// points actually ran.
type countingMatcher struct{ n *int }

func (countingMatcher) Name() string { return "CNT" }
func (c countingMatcher) Match(g *graph.Bipartite, t float64) []core.Pair {
	*c.n++
	return nil
}

// TestSweepOptsStop checks that a tripped Stop halts the sweep between
// points: cancellation latency is bounded by one Match call, not the
// full 20-point grid.
func TestSweepOptsStop(t *testing.T) {
	g, gt := randomSweepInput(t, 3)
	calls := 0
	SweepOpts(g, gt, countingMatcher{&calls}, SweepOptions{
		Parallelism: 1,
		Stop:        func() bool { return calls >= 2 },
	})
	if calls != 2 {
		t.Fatalf("sweep ran %d points after Stop tripped, want 2", calls)
	}
}

// TestSweepDefaultsDelegate pins that Sweep is the serial special case
// of SweepOpts.
func TestSweepDefaultsDelegate(t *testing.T) {
	g, gt := randomSweepInput(t, 5)
	m := core.UMC{}
	equalSweepResults(t,
		[]SweepResult{Sweep(g, gt, m, 1)},
		[]SweepResult{SweepOpts(g, gt, m, SweepOptions{Parallelism: 1})})
}
