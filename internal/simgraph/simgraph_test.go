package simgraph

import (
	"strings"
	"testing"

	"github.com/ccer-go/ccer/internal/datagen"
	"github.com/ccer-go/ccer/internal/dataset"
	"github.com/ccer-go/ccer/internal/graph"
)

func testTask(t *testing.T) *dataset.Task {
	t.Helper()
	spec, err := datagen.SpecByID("D2")
	if err != nil {
		t.Fatal(err)
	}
	return spec.Generate(3, 0.03)
}

func TestGenerateCounts(t *testing.T) {
	task := testTask(t)
	graphs := Generate(task, []string{"name"}, Options{KeepNoMatchGraphs: true})
	byFamily := map[Family]int{}
	for _, sg := range graphs {
		byFamily[sg.Family]++
	}
	// 16 schema-based measures per key attribute.
	if byFamily[SBSyn] != 16 {
		t.Fatalf("SB-SYN graphs = %d, want 16", byFamily[SBSyn])
	}
	// 6 modes × 6 bag measures + 6 modes × 4 graph measures = 60.
	if byFamily[SASyn] != 60 {
		t.Fatalf("SA-SYN graphs = %d, want 60", byFamily[SASyn])
	}
	// 2 models × 3 measures per key attribute.
	if byFamily[SBSem] != 6 {
		t.Fatalf("SB-SEM graphs = %d, want 6", byFamily[SBSem])
	}
	if byFamily[SASem] != 6 {
		t.Fatalf("SA-SEM graphs = %d, want 6", byFamily[SASem])
	}
}

func TestGenerateTwoKeyAttrs(t *testing.T) {
	task := testTask(t)
	graphs := Generate(task, []string{"name", "price"},
		Options{Families: []Family{SBSyn, SBSem}, KeepNoMatchGraphs: true})
	byFamily := map[Family]int{}
	for _, sg := range graphs {
		byFamily[sg.Family]++
	}
	if byFamily[SBSyn] != 32 {
		t.Fatalf("SB-SYN graphs = %d, want 32", byFamily[SBSyn])
	}
	if byFamily[SBSem] != 12 {
		t.Fatalf("SB-SEM graphs = %d, want 12", byFamily[SBSem])
	}
}

func TestGraphsAreNormalizedAndSized(t *testing.T) {
	task := testTask(t)
	graphs := Generate(task, []string{"name"}, Options{})
	if len(graphs) == 0 {
		t.Fatal("no graphs generated")
	}
	for _, sg := range graphs {
		if sg.G.N1() != task.V1.Len() || sg.G.N2() != task.V2.Len() {
			t.Fatalf("%s: wrong node counts", sg.Name)
		}
		if sg.G.NumEdges() == 0 {
			t.Fatalf("%s: empty graph survived cleaning", sg.Name)
		}
		for _, e := range sg.G.Edges() {
			if e.W < 0 || e.W > 1 {
				t.Fatalf("%s: weight %v out of [0,1]", sg.Name, e.W)
			}
		}
		if err := sg.G.Validate(); err != nil {
			t.Fatalf("%s: %v", sg.Name, err)
		}
		if sg.Dataset != "D2" {
			t.Fatalf("%s: dataset = %q", sg.Name, sg.Dataset)
		}
	}
}

func TestGenerateFamilyFilter(t *testing.T) {
	task := testTask(t)
	graphs := Generate(task, []string{"name"},
		Options{Families: []Family{SASem}, KeepNoMatchGraphs: true})
	for _, sg := range graphs {
		if sg.Family != SASem {
			t.Fatalf("unexpected family %s", sg.Family)
		}
	}
	if len(graphs) != 6 {
		t.Fatalf("graphs = %d, want 6", len(graphs))
	}
}

func TestMatchEdgesPresent(t *testing.T) {
	// The default cleaning keeps only graphs where at least one true
	// match has positive weight; on D2 (products sharing model numbers)
	// most syntactic graphs should retain many match edges.
	task := testTask(t)
	graphs := Generate(task, []string{"name"}, Options{Families: []Family{SASyn}})
	if len(graphs) == 0 {
		t.Fatal("all graphs dropped")
	}
	for _, sg := range graphs {
		found := 0
		for _, p := range task.GT.Pairs {
			if _, ok := sg.G.Weight(p[0], p[1]); ok {
				found++
			}
		}
		if found == 0 {
			t.Fatalf("%s: no match edges despite cleaning", sg.Name)
		}
	}
}

func TestGraphNamesUniqueAndStructured(t *testing.T) {
	task := testTask(t)
	graphs := Generate(task, []string{"name"}, Options{KeepNoMatchGraphs: true})
	seen := map[string]bool{}
	for _, sg := range graphs {
		key := string(sg.Family) + "|" + sg.Name
		if seen[key] {
			t.Fatalf("duplicate graph name %q", key)
		}
		seen[key] = true
		if strings.TrimSpace(sg.Name) == "" {
			t.Fatal("empty graph name")
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	task := testTask(t)
	a := Generate(task, []string{"name"}, Options{Families: []Family{SBSyn, SASem}})
	b := Generate(task, []string{"name"}, Options{Families: []Family{SBSyn, SASem}})
	if len(a) != len(b) {
		t.Fatalf("runs differ in size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].G.NumEdges() != b[i].G.NumEdges() {
			t.Fatalf("graph %d differs between runs", i)
		}
		ea, eb := a[i].G.Edges(), b[i].G.Edges()
		for k := range ea {
			if ea[k] != eb[k] {
				t.Fatalf("graph %s edge %d differs", a[i].Name, k)
			}
		}
	}
}

func TestSemanticGraphsAreDenser(t *testing.T) {
	// The paper observes semantic similarities connect most pairs
	// (Table 3 shows ~100% density for schema-agnostic semantic inputs).
	task := testTask(t)
	sem := Generate(task, nil, Options{Families: []Family{SASem}, KeepNoMatchGraphs: true})
	for _, sg := range sem {
		if sg.G.Density() < 0.9 {
			t.Fatalf("%s: density %.2f, want ~1.0", sg.Name, sg.G.Density())
		}
	}
}

// Row-parallel generation must be byte-identical to serial generation at
// any worker count (run under -race in CI, this also exercises the
// kernels' goroutine safety).
func TestRowParallelByteIdentical(t *testing.T) {
	task := testTask(t)
	serial := Generate(task, []string{"name"}, Options{Parallelism: 1, KeepNoMatchGraphs: true})
	parallel := Generate(task, []string{"name"}, Options{Parallelism: 8, KeepNoMatchGraphs: true})
	if len(serial) != len(parallel) {
		t.Fatalf("parallel emitted %d graphs, serial %d", len(parallel), len(serial))
	}
	for k := range serial {
		if serial[k].Name != parallel[k].Name {
			t.Fatalf("graph %d name %q vs %q", k, parallel[k].Name, serial[k].Name)
		}
		if serial[k].G.Checksum() != parallel[k].G.Checksum() {
			t.Fatalf("%s: parallel checksum differs from serial", serial[k].Name)
		}
	}
}

// The no-match cleaning rule must drop exactly the graphs in which no
// ground-truth pair has an edge, whichever side of the early-exit check
// (edge scan vs GT scan) gets used.
func TestFilterNoMatchGraphs(t *testing.T) {
	gt := dataset.NewGroundTruth([][2]int32{{0, 0}, {1, 1}})
	build := func(edges [][3]float64) *graph.Bipartite {
		b := graph.NewBuilder(3, 3)
		for _, e := range edges {
			b.Add(int32(e[0]), int32(e[1]), e[2])
		}
		return b.MustBuild()
	}
	gMatch := build([][3]float64{{0, 0, 0.9}, {2, 1, 0.4}})                                                         // edge on GT pair (0,0)
	gNoMatch := build([][3]float64{{0, 1, 0.9}, {2, 2, 0.8}})                                                       // edges, none on GT pairs
	gDenseMatch := build([][3]float64{{0, 0, 1}, {0, 1, 1}, {0, 2, 1}, {1, 0, 1}, {1, 1, 1}, {2, 0, 1}, {2, 2, 1}}) // more edges than GT pairs
	in := []SimGraph{
		{Name: "match", G: gMatch},
		{Name: "nomatch", G: gNoMatch},
		{Name: "densematch", G: gDenseMatch},
	}
	kept := filterNoMatchGraphs(in, gt)
	if len(kept) != 2 || kept[0].Name != "match" || kept[1].Name != "densematch" {
		names := make([]string, len(kept))
		for i, sg := range kept {
			names[i] = sg.Name
		}
		t.Fatalf("kept %v, want [match densematch]", names)
	}
	// Empty ground truth keeps nothing (no pair can have positive weight).
	if got := filterNoMatchGraphs(in, dataset.NewGroundTruth(nil)); len(got) != 0 {
		t.Fatalf("empty GT kept %d graphs, want 0", len(got))
	}
}
