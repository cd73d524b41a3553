package ccer

import (
	"testing"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	src := []string{"golden dragon bistro", "blue harbor grill", "old oak tavern"}
	dst := []string{"golden dragon bistro", "blue harbour grill", "crimson star cafe"}
	g, err := BuildGraph(src, dst, TokenJaccard, 0)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := Match(g, "UMC", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Fatal("no pairs matched")
	}
	found := false
	for _, p := range pairs {
		if p.U == 0 && p.V == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("identical entities not matched: %v", pairs)
	}
}

func TestFacadeAlgorithms(t *testing.T) {
	if len(Algorithms()) != 8 {
		t.Fatalf("Algorithms: %d, want 8", len(Algorithms()))
	}
	for _, name := range append(Algorithms(), "HUN", "AUC") {
		m, err := NewMatcher(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() != name {
			t.Fatalf("NewMatcher(%q).Name() = %q", name, m.Name())
		}
	}
	if _, err := NewMatcher("XXX", 0); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := Match(nil, "XXX", 0.5); err == nil {
		t.Fatal("Match with unknown algorithm accepted")
	}
}

func TestFacadeStringSimilarities(t *testing.T) {
	if JaroSimilarity("martha", "marhta") <= 0.9 {
		t.Fatal("Jaro broken")
	}
	if TokenJaccard("red apple pie", "red apple tart") != 0.5 {
		t.Fatalf("TokenJaccard = %v", TokenJaccard("red apple pie", "red apple tart"))
	}
}

func TestFacadeDatasetsAndGraphs(t *testing.T) {
	task, err := GenerateDataset("D2", 7, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	attrs, err := KeyAttributes("D2")
	if err != nil || len(attrs) == 0 {
		t.Fatalf("KeyAttributes: %v, %v", attrs, err)
	}
	graphs := GenerateGraphs(task, attrs, []WeightFamily{WeightFamilies()[0]})
	if len(graphs) == 0 {
		t.Fatal("no graphs generated")
	}
	m, _ := NewMatcher("UMC", 1)
	res := SweepThreshold(graphs[0].G, task.GT, m, 1)
	if res.Best.F1 <= 0 {
		t.Fatalf("sweep found no signal: %+v", res.Best)
	}
	if _, err := GenerateDataset("D99", 1, 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := KeyAttributes("D99"); err == nil {
		t.Fatal("unknown dataset accepted by KeyAttributes")
	}
}

func TestFacadeEvaluate(t *testing.T) {
	gt := NewGroundTruth([][2]int32{{0, 0}, {1, 1}})
	m := Evaluate([]Pair{{U: 0, V: 0, W: 0.9}}, gt)
	if m.Precision != 1 || m.Recall != 0.5 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestFacadePipeline(t *testing.T) {
	task, err := GenerateDataset("D1", 3, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	blocks := TokenBlocking(task.V1, task.V2)
	if len(blocks) == 0 {
		t.Fatal("no blocks")
	}
	blocks = FilterBlocks(PurgeBlocks(blocks, task.Comparisons()/4), 0.6)
	cands := BlockCandidates(blocks)
	q := EvaluateBlocking(cands, task.GT, task.V1.Len(), task.V2.Len())
	if q.PairCompleteness < 0.8 {
		t.Fatalf("pair completeness %.2f too low", q.PairCompleteness)
	}
	if q.ReductionRatio <= 0 {
		t.Fatalf("no reduction: %v", q.ReductionRatio)
	}
	g, err := BuildGraphFromCandidates(task.V1.Texts(), task.V2.Texts(), cands, TokenJaccard, 0)
	if err != nil {
		t.Fatal(err)
	}
	g = g.NormalizeMinMax()
	th := EstimateThreshold(g)
	if th < 0.05 || th > 0.95 {
		t.Fatalf("estimated threshold %v out of range", th)
	}
	pairs, err := Match(g, "EXC", th)
	if err != nil {
		t.Fatal(err)
	}
	if m := Evaluate(pairs, task.GT); m.F1 <= 0.3 {
		t.Fatalf("pipeline F1 = %v, want useful signal", m.F1)
	}
}

func TestFacadeQLearningMatcher(t *testing.T) {
	m := NewQLearningMatcher(5)
	if m.Name() != "QLM" {
		t.Fatalf("name = %q", m.Name())
	}
	g, err := BuildGraph([]string{"alpha beta"}, []string{"alpha beta"}, TokenJaccard, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pairs := m.Match(g, 0.5); len(pairs) != 1 {
		t.Fatalf("QLM pairs = %v", pairs)
	}
}
