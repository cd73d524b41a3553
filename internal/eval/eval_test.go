package eval

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/ccer-go/ccer/internal/core"
	"github.com/ccer-go/ccer/internal/dataset"
	"github.com/ccer-go/ccer/internal/graph"
)

func approx(t *testing.T, got, want float64, name string) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("%s = %v, want %v", name, got, want)
	}
}

func TestEvaluate(t *testing.T) {
	gt := dataset.NewGroundTruth([][2]int32{{0, 0}, {1, 1}, {2, 2}, {3, 3}})
	pairs := []core.Pair{
		{U: 0, V: 0, W: 0.9}, // correct
		{U: 1, V: 1, W: 0.8}, // correct
		{U: 2, V: 5, W: 0.7}, // wrong
	}
	m := Evaluate(pairs, gt)
	approx(t, m.Precision, 2.0/3.0, "Precision")
	approx(t, m.Recall, 2.0/4.0, "Recall")
	approx(t, m.F1, 2*(2.0/3.0)*(0.5)/((2.0/3.0)+0.5), "F1")
}

// TestEvaluateDivisionGuards pins the division conventions: every ratio
// is individually guarded, so no combination of empty matchings and
// empty/nil ground truths divides by zero or produces NaN.
func TestEvaluateDivisionGuards(t *testing.T) {
	gt3 := dataset.NewGroundTruth([][2]int32{{0, 0}, {1, 1}, {2, 2}})
	cases := []struct {
		name  string
		pairs []core.Pair
		gt    *dataset.GroundTruth
		want  Metrics
	}{
		{"nil pairs, nil gt", nil, nil, Metrics{}},
		{"nil pairs, empty gt", nil, dataset.NewGroundTruth(nil), Metrics{}},
		{"nil pairs, real gt", nil, gt3, Metrics{}},
		{"pairs, nil gt", []core.Pair{{U: 0, V: 0}}, nil, Metrics{}},
		{"pairs, empty gt", []core.Pair{{U: 0, V: 0}}, dataset.NewGroundTruth(nil), Metrics{}},
		{"all wrong", []core.Pair{{U: 0, V: 2}, {U: 1, V: 0}}, gt3, Metrics{}},
		{"all correct, partial recall",
			[]core.Pair{{U: 0, V: 0}}, gt3,
			Metrics{Precision: 1, Recall: 1.0 / 3.0, F1: 0.5}},
		{"perfect",
			[]core.Pair{{U: 0, V: 0}, {U: 1, V: 1}, {U: 2, V: 2}}, gt3,
			Metrics{Precision: 1, Recall: 1, F1: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Evaluate(tc.pairs, tc.gt)
			if math.IsNaN(got.Precision) || math.IsNaN(got.Recall) || math.IsNaN(got.F1) {
				t.Fatalf("NaN metrics: %+v", got)
			}
			approx(t, got.Precision, tc.want.Precision, "Precision")
			approx(t, got.Recall, tc.want.Recall, "Recall")
			approx(t, got.F1, tc.want.F1, "F1")
		})
	}
}

func TestEvaluateEdgeCases(t *testing.T) {
	gt := dataset.NewGroundTruth([][2]int32{{0, 0}})
	empty := Evaluate(nil, gt)
	if empty.Precision != 0 || empty.Recall != 0 || empty.F1 != 0 {
		t.Fatalf("empty output metrics = %+v", empty)
	}
	none := Evaluate([]core.Pair{{U: 0, V: 0}}, dataset.NewGroundTruth(nil))
	if none.Precision != 0 || none.Recall != 0 {
		t.Fatalf("empty GT metrics = %+v", none)
	}
	perfect := Evaluate([]core.Pair{{U: 0, V: 0}}, gt)
	approx(t, perfect.F1, 1, "perfect F1")
}

func TestThresholds(t *testing.T) {
	ts := Thresholds()
	if len(ts) != 20 {
		t.Fatalf("thresholds: %d, want 20", len(ts))
	}
	approx(t, ts[0], 0.05, "first")
	approx(t, ts[19], 1.0, "last")
	for i := 1; i < len(ts); i++ {
		approx(t, ts[i]-ts[i-1], 0.05, "step")
	}
}

// sweepGraph has matches at weight 0.8 and noise edges at 0.4: any
// threshold in [0.4, 0.8) yields perfect F1, so the sweep must select the
// largest such grid point, 0.75.
func sweepFixture(t *testing.T) (*graph.Bipartite, *dataset.GroundTruth) {
	t.Helper()
	b := graph.NewBuilder(3, 3)
	b.Add(0, 0, 0.8)
	b.Add(1, 1, 0.8)
	b.Add(2, 2, 0.8)
	b.Add(0, 1, 0.4)
	b.Add(1, 0, 0.4)
	b.Add(2, 0, 0.4)
	b.Add(0, 2, 0.4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, dataset.NewGroundTruth([][2]int32{{0, 0}, {1, 1}, {2, 2}})
}

func TestSweepSelectsLargestBestThreshold(t *testing.T) {
	g, gt := sweepFixture(t)
	res := Sweep(g, gt, core.UMC{}, 1)
	approx(t, res.Best.F1, 1, "best F1")
	approx(t, res.BestT, 0.75, "best threshold")
	if len(res.Points) != 20 {
		t.Fatalf("points: %d, want 20", len(res.Points))
	}
	if res.Algorithm != "UMC" {
		t.Fatalf("algorithm = %q", res.Algorithm)
	}
	if res.Runtime < 0 {
		t.Fatal("negative runtime")
	}
}

func TestSweepAll(t *testing.T) {
	g, gt := sweepFixture(t)
	matchers := []core.Matcher{core.UMC{}, core.CNC{}, core.EXC{}}
	results := SweepAllOpts(g, gt, matchers, SweepOptions{Repeats: 1, Parallelism: 1})
	if len(results) != 3 {
		t.Fatalf("results: %d", len(results))
	}
	for i, r := range results {
		if r.Algorithm != matchers[i].Name() {
			t.Fatalf("result %d for %q, want %q", i, r.Algorithm, matchers[i].Name())
		}
		// This fixture is easy: every algorithm should reach F1=1 at
		// t=0.75 (noise edges pruned, matches mutually best).
		approx(t, r.Best.F1, 1, r.Algorithm+" F1")
		approx(t, r.BestT, 0.75, r.Algorithm+" threshold")
	}
}

func TestTopCounts(t *testing.T) {
	f1 := [][]float64{
		{0.9, 0.8, 0.7}, // A top, B second
		{0.9, 0.8, 0.7}, // same
		{0.5, 0.9, 0.7}, // B top, C second
		{0.6, 0.6, 0.2}, // A and B tie for top, C second
	}
	ts := TopCounts(f1)
	if !reflect.DeepEqual(ts.Top1, []int{3, 2, 0}) {
		t.Fatalf("Top1 = %v", ts.Top1)
	}
	if !reflect.DeepEqual(ts.Top2, []int{0, 2, 2}) {
		t.Fatalf("Top2 = %v", ts.Top2)
	}
	// A's deltas: 10, 10, 40 (tie row: best 0.6, second 0.2).
	approx(t, ts.Delta[0], (10.0+10.0+40.0)/3, "Delta A")
	// B's deltas: 20 (row 3), 40 (tie row).
	approx(t, ts.Delta[1], 30, "Delta B")
	approx(t, ts.Delta[2], 0, "Delta C")
}

func TestTopCountsAllTied(t *testing.T) {
	ts := TopCounts([][]float64{{0.5, 0.5}})
	if !reflect.DeepEqual(ts.Top1, []int{1, 1}) {
		t.Fatalf("Top1 = %v", ts.Top1)
	}
	if !reflect.DeepEqual(ts.Top2, []int{0, 0}) {
		t.Fatalf("Top2 = %v", ts.Top2)
	}
	approx(t, ts.Delta[0], 0, "Delta tied")
	empty := TopCounts(nil)
	if empty.Top1 != nil {
		t.Fatal("empty TopCounts not zero")
	}
}

// Precision and recall are always in [0,1] and F1 is their harmonic mean.
func TestPropertyEvaluateBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 1
		var gtPairs [][2]int32
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				gtPairs = append(gtPairs, [2]int32{int32(i), int32(i)})
			}
		}
		gt := dataset.NewGroundTruth(gtPairs)
		var pairs []core.Pair
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				pairs = append(pairs, core.Pair{U: int32(i), V: int32(rng.Intn(n))})
			}
		}
		m := Evaluate(pairs, gt)
		if m.Precision < 0 || m.Precision > 1 || m.Recall < 0 || m.Recall > 1 {
			return false
		}
		if m.Precision > 0 && m.Recall > 0 {
			want := 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
			return math.Abs(m.F1-want) < 1e-12
		}
		return m.F1 == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The sweep's Best is the max F1 over its points, at the largest such
// threshold.
func TestPropertySweepConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n1, n2 := rng.Intn(12)+3, rng.Intn(12)+3
		b := graph.NewBuilder(n1, n2)
		m := rng.Intn(60)
		for i := 0; i < m; i++ {
			b.Add(int32(rng.Intn(n1)), int32(rng.Intn(n2)), rng.Float64())
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		var gtPairs [][2]int32
		for i := 0; i < min(n1, n2); i++ {
			if rng.Intn(2) == 0 {
				gtPairs = append(gtPairs, [2]int32{int32(i), int32(i)})
			}
		}
		if len(gtPairs) == 0 {
			gtPairs = [][2]int32{{0, 0}}
		}
		gt := dataset.NewGroundTruth(gtPairs)
		res := Sweep(g, gt, core.UMC{}, 1)
		bestF1, bestT := -1.0, -1.0
		for _, p := range res.Points {
			if p.Metrics.F1 >= bestF1 {
				bestF1 = p.Metrics.F1
				bestT = p.T
			}
		}
		return math.Abs(res.Best.F1-bestF1) < 1e-12 && math.Abs(res.BestT-bestT) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
