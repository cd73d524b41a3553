package graph_test

import (
	"testing"

	"github.com/ccer-go/ccer/internal/datagen"
	"github.com/ccer-go/ccer/internal/graph"
	"github.com/ccer-go/ccer/internal/simgraph"
)

// matchColdGraphs generates the graphs loadbench's match-cold workload
// stores: the six SB-SEM graphs of D2 at seed 1, scale 0.5 (248,018
// edges each).
func matchColdGraphs(t *testing.T) []simgraph.SimGraph {
	t.Helper()
	spec, err := datagen.SpecByID("D2")
	if err != nil {
		t.Fatal(err)
	}
	opts := simgraph.Options{Families: []simgraph.Family{simgraph.SBSem}, KeepNoMatchGraphs: true}
	gs := simgraph.Generate(spec.Generate(1, 0.5), spec.KeyAttrs, opts)
	if len(gs) != 6 {
		t.Fatalf("%d SB-SEM graphs, want 6", len(gs))
	}
	return gs
}

// TestEdgeListMatchesSeedMatchCold runs the encoder-equivalence check
// on match-cold's graphs.
func TestEdgeListMatchesSeedMatchCold(t *testing.T) {
	for _, sg := range matchColdGraphs(t) {
		t.Run(sg.Name, func(t *testing.T) { graph.CheckEdgeListMatchesSeed(t, sg.G) })
	}
}

// TestResidentBytesMatchCold pins the resident bytes of match-cold's
// six 538 x 538 graphs: the V1 rows alone once generated (12 bytes an
// edge plus 4 x 539 of offsets), and as much again for the V2 side once
// Adjacency builds it, 24 bytes an edge where an edge list, a by-weight
// permutation and both sides took 44.
func TestResidentBytesMatchCold(t *testing.T) {
	const side = 12*248_018 + 4*539 // 2,978,372
	var total graph.Resident
	for _, sg := range matchColdGraphs(t) {
		if got, want := sg.G.ResidentBytes(), (graph.Resident{V1: side}); got != want {
			t.Fatalf("%s generated: %+v, want %+v", sg.Name, got, want)
		}
		sg.G.Adjacency()
		r := sg.G.ResidentBytes()
		if want := (graph.Resident{V1: side, V2: side}); r != want {
			t.Fatalf("%s after Adjacency: %+v, want %+v", sg.Name, r, want)
		}
		total.V1 += r.V1
		total.V2 += r.V2
	}
	if total.V1 != 17_870_232 || total.V2 != 17_870_232 {
		t.Fatalf("six graphs: %+v, want 17,870,232 bytes a side", total)
	}
}
