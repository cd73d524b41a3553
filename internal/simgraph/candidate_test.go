package simgraph

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/ccer-go/ccer/internal/dataset"
	"github.com/ccer-go/ccer/internal/embed"
	"github.com/ccer-go/ccer/internal/graph"
	"github.com/ccer-go/ccer/internal/strsim"
	"github.com/ccer-go/ccer/internal/vector"
)

// adversarialTask exercises every filter edge: empty texts (skipped
// outright), punctuation-only texts (token-less but character-bearing,
// so token measures hit the both-empty = 1 case), case-flipped pairs
// (raw alphabets disjoint, token alphabets equal), genuinely disjoint
// alphabets, shared-single-character pairs (Monge-Elkan positive with
// zero shared tokens), unicode, and strings crossing the 64-rune
// bit-parallel word boundary.
func adversarialTask() *dataset.Task {
	mk := func(name string, texts []string) *dataset.Collection {
		c := &dataset.Collection{Name: name}
		for k, txt := range texts {
			c.Profiles = append(c.Profiles, dataset.Profile{
				ID:    fmt.Sprintf("%s%d", name, k),
				Attrs: map[string]string{"name": txt},
			})
		}
		return c
	}
	texts1 := []string{
		"golden dragon bistro",
		"",
		"!!!",
		"ABC DEF",
		"xyz",
		"a",
		strings.Repeat("long tail value ", 6), // 96 runes: blocked kernels
		"日本語 カフェ",
		"shared-char zq",
		"???",
	}
	texts2 := []string{
		"golden dragon",
		"",
		"...",
		"abc def",
		"vw",
		"a",
		strings.Repeat("long tail value ", 6),
		"日本語",
		"qz char-shared",
		"12 34",
	}
	return &dataset.Task{
		Name: "ADV",
		V1:   mk("a", texts1),
		V2:   mk("b", texts2),
		GT:   dataset.NewGroundTruth([][2]int32{{0, 0}, {3, 3}, {6, 6}}),
	}
}

func checksums(t *testing.T, graphs []SimGraph) map[string]uint64 {
	t.Helper()
	out := make(map[string]uint64, len(graphs))
	for _, sg := range graphs {
		key := string(sg.Family) + "|" + sg.Name
		if _, dup := out[key]; dup {
			t.Fatalf("duplicate graph %s", key)
		}
		out[key] = sg.G.Checksum()
	}
	return out
}

func compareRuns(t *testing.T, want, got []SimGraph, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d graphs, want %d", label, len(got), len(want))
	}
	wsum := checksums(t, want)
	for k, sg := range got {
		key := string(sg.Family) + "|" + sg.Name
		ref, ok := wsum[key]
		if !ok {
			t.Fatalf("%s: unexpected graph %s", label, key)
		}
		if sg.G.Checksum() != ref {
			t.Fatalf("%s: graph %d (%s) checksum %016x != seed pipeline %016x", label, k, key, sg.G.Checksum(), ref)
		}
		if want[k].Name != sg.Name || want[k].Family != sg.Family {
			t.Fatalf("%s: graph order diverged at %d: %s vs %s", label, k, sg.Name, want[k].Name)
		}
	}
}

// TestCandidateVsDenseAllFamilies proves the candidate-driven kernels
// emit byte-identical graphs (graph.Checksum) to the seed pipeline's
// dense loops (slowGenerate) for all four families, on a generated
// dataset and on the adversarial task, at several worker counts (run
// under -race in CI).
func TestCandidateVsDenseAllFamilies(t *testing.T) {
	for _, tc := range []struct {
		name string
		task *dataset.Task
	}{
		{"generated", testTask(t)},
		{"adversarial", adversarialTask()},
	} {
		opts := Options{KeepNoMatchGraphs: true}
		dense := slowGenerate(tc.task, []string{"name"}, opts)
		if len(dense) == 0 {
			t.Fatalf("%s: seed pipeline produced no graphs", tc.name)
		}
		for _, workers := range []int{1, 2, 4} {
			pruned := opts
			pruned.Parallelism = workers
			got := Generate(tc.task, []string{"name"}, pruned)
			compareRuns(t, dense, got, fmt.Sprintf("%s/w%d", tc.name, workers))
		}
	}
}

// TestAdversarialEmptyEmptyEdges pins the losslessness fix the dense
// comparison relies on: pairs of token-less (or edge-less) entities
// must produce the similarity-1 edges the paper's definitions assign
// them, which pure posting enumeration would drop.
func TestAdversarialEmptyEmptyEdges(t *testing.T) {
	task := adversarialTask()
	graphs := Generate(task, []string{"name"}, Options{KeepNoMatchGraphs: true})
	byName := map[string]SimGraph{}
	for _, sg := range graphs {
		byName[string(sg.Family)+"|"+sg.Name] = sg
	}
	// "!!!" (V1 index 2) and "..." / "12 34"? — "..." (V2 index 2) are
	// token-less under char modes? No: bag char modes gram them. Token
	// mode token1: both token-less -> Jaccard 1 edge must exist.
	sg, ok := byName["SA-SYN|token1/Jaccard"]
	if !ok {
		t.Fatal("missing token1/Jaccard graph")
	}
	if _, exists := sg.G.Weight(2, 2); !exists {
		t.Fatal("token1/Jaccard lost the empty-vs-empty pair (2,2)")
	}
	// SB-SYN token measures: "!!!" vs "..." both tokenize to nothing ->
	// every token measure is 1 for the pair.
	sg, ok = byName["SB-SYN|name/Jaccard"]
	if !ok {
		t.Fatal("missing SB-SYN name/Jaccard graph")
	}
	if _, exists := sg.G.Weight(2, 2); !exists {
		t.Fatal("SB-SYN Jaccard lost the token-less pair (2,2)")
	}
	// Monge-Elkan positive with zero shared tokens: "shared-char zq"
	// (V1 8) vs "qz char-shared" (V2 8) share characters, not tokens.
	sg, ok = byName["SB-SYN|name/MongeElkan"]
	if !ok {
		t.Fatal("missing MongeElkan graph")
	}
	if _, exists := sg.G.Weight(8, 8); !exists {
		t.Fatal("MongeElkan lost the shared-char pair (8,8)")
	}
}

// TestRepCachesByteIdenticalAndHit: generation through a shared
// RepCaches is byte-identical to uncached generation, and a repeat
// build of the same task is served from the caches.
func TestRepCachesByteIdenticalAndHit(t *testing.T) {
	task := testTask(t)
	opts := Options{KeepNoMatchGraphs: true}
	want := Generate(task, []string{"name"}, opts)

	caches := NewRepCaches(1)
	cached := opts
	cached.Caches = caches
	first := Generate(task, []string{"name"}, cached)
	compareRuns(t, want, first, "cached-first")
	st := caches.Stats()
	if st.Misses == 0 {
		t.Fatal("first cached build recorded no misses")
	}
	if st.Hits != 0 {
		t.Fatalf("first cached build recorded %d hits", st.Hits)
	}
	second := Generate(task, []string{"name"}, cached)
	compareRuns(t, want, second, "cached-second")
	st2 := caches.Stats()
	if st2.Hits == 0 {
		t.Fatal("second cached build hit nothing")
	}
	if st2.Misses != st.Misses {
		t.Fatalf("second cached build rebuilt representations: misses %d -> %d", st.Misses, st2.Misses)
	}
}

// TestGenerateStatsShape: the candidate counters add up to the kernel
// blocks the seed pipeline's dense loops compute — for SB-SYN three per
// non-empty pair (Needleman-Wunsch, the other char measures, the token
// measures), for SA-SYN a bag and an n-gram-graph block per pair and
// model, for the semantic families one per non-empty pair and
// embedding model — and the semantic families, dense by nature, report
// no skips.
func TestGenerateStatsShape(t *testing.T) {
	task := testTask(t)
	_, stats := GenerateStats(task, []string{"name"}, Options{KeepNoMatchGraphs: true})
	if stats.SBSyn.Visited == 0 || stats.SASyn.Visited == 0 {
		t.Fatalf("syntactic families report no visits: %+v", stats)
	}
	if stats.SASyn.Skipped == 0 {
		t.Fatalf("SA-SYN candidate cut skipped nothing on a generated dataset: %+v", stats)
	}
	if stats.SBSem.Skipped != 0 || stats.SASem.Skipped != 0 {
		t.Fatalf("semantic families are dense by nature but report skips: %+v", stats)
	}
	if r := stats.Total().SkipRatio(); r < 0 || r >= 1 {
		t.Fatalf("total skip ratio %v out of range", r)
	}
	nonEmpty := func(texts1, texts2 []string) int64 {
		var n1, n2 int64
		for _, s := range texts1 {
			if s != "" {
				n1++
			}
		}
		for _, s := range texts2 {
			if s != "" {
				n2++
			}
		}
		return n1 * n2
	}
	models := int64(len(embed.Models()))
	names := nonEmpty(task.V1.AttrTexts("name"), task.V2.AttrTexts("name"))
	for _, c := range []struct {
		family Family
		blocks int64
	}{
		{SBSyn, 3 * names},
		{SASyn, 2 * int64(len(vector.Modes())) * int64(task.V1.Len()*task.V2.Len())},
		{SBSem, models * names},
		{SASem, models * nonEmpty(task.V1.Texts(), task.V2.Texts())},
	} {
		if fs := stats.Of(c.family); fs.Visited+fs.Skipped != c.blocks {
			t.Errorf("%s: visited %d + skipped %d != %d dense blocks", c.family, fs.Visited, fs.Skipped, c.blocks)
		}
	}
}

// FuzzCandidateVsDense drives tiny two-a-side tasks from fuzz strings
// through the kernels and the seed pipeline's dense loops; any
// divergence is a filter losslessness bug.
func FuzzCandidateVsDense(f *testing.F) {
	f.Add("golden dragon", "", "!!!", "DRAGON golden")
	f.Add("a", "b", "ab", "ba")
	f.Add("日本", "abc", "...", "xyz")
	f.Fuzz(func(t *testing.T, a1, a2, b1, b2 string) {
		clip := func(s string) string {
			if len(s) > 80 {
				s = s[:80]
			}
			return s
		}
		mk := func(name string, texts ...string) *dataset.Collection {
			c := &dataset.Collection{Name: name}
			for k, txt := range texts {
				c.Profiles = append(c.Profiles, dataset.Profile{
					ID:    fmt.Sprintf("%s%d", name, k),
					Attrs: map[string]string{"name": clip(txt)},
				})
			}
			return c
		}
		task := &dataset.Task{
			Name: "FZ",
			V1:   mk("a", a1, a2),
			V2:   mk("b", b1, b2),
			GT:   dataset.NewGroundTruth([][2]int32{{0, 0}}),
		}
		opts := Options{KeepNoMatchGraphs: true}
		dense := slowGenerate(task, []string{"name"}, opts)
		got := Generate(task, []string{"name"}, opts)
		compareRuns(t, dense, got, "fuzz")
	})
}

// scalarMeasureGraph is the single-measure graph by definition: the
// scalar strsim function over every pair of non-empty texts, weights
// above max(minSim, 0) kept, min-max normalized.
func scalarMeasureGraph(t *testing.T, texts1, texts2 []string, name string, minSim float64) *graph.Bipartite {
	t.Helper()
	sim := strsim.AllMeasures()[name]
	b := graph.NewBuilder(len(texts1), len(texts2))
	for i, a := range texts1 {
		for j, c := range texts2 {
			if a == "" || c == "" {
				continue
			}
			if v := sim(a, c); v > minSim && v > 0 {
				b.Add(int32(i), int32(j), v)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g.NormalizeMinMax()
}

// TestMeasureGraph: every single-measure graph equals its scalar
// definition, with and without a min_sim cut, on the generated and the
// adversarial task and at several worker counts; a cancelled context
// stops the build and an unknown measure is an error.
func TestMeasureGraph(t *testing.T) {
	for _, task := range []*dataset.Task{testTask(t), adversarialTask()} {
		t1, t2 := task.V1.AttrTexts("name"), task.V2.AttrTexts("name")
		for _, name := range sbMeasureNames {
			for _, minSim := range []float64{0, 0.4} {
				want := scalarMeasureGraph(t, t1, t2, name, minSim).Checksum()
				for _, workers := range []int{1, 3} {
					g, fs, err := MeasureGraph(context.Background(), t1, t2, name, minSim, workers)
					if err != nil {
						t.Fatal(err)
					}
					if g.Checksum() != want {
						t.Fatalf("%s %s min_sim %g w%d: checksum %016x, scalar %016x",
							task.Name, name, minSim, workers, g.Checksum(), want)
					}
					if fs.Visited == 0 {
						t.Fatalf("%s %s: no pairs visited", task.Name, name)
					}
				}
			}
		}
	}
	task := testTask(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := MeasureGraph(ctx, task.V1.AttrTexts("name"), task.V2.AttrTexts("name"), "Jaccard", 0, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build: err %v, want context.Canceled", err)
	}
	if err := CheckMeasure("Nope"); err == nil || !strings.Contains(err.Error(), "MongeElkan") {
		t.Fatalf("unknown measure: err %v, want one listing the measures", err)
	}
}
