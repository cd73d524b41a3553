package graph_test

import (
	"testing"

	"github.com/ccer-go/ccer/internal/datagen"
	"github.com/ccer-go/ccer/internal/graph"
	"github.com/ccer-go/ccer/internal/simgraph"
)

// TestEdgeListMatchesSeedMatchCold runs the encoder-equivalence check
// on the graphs loadbench's match-cold workload stores: the six SB-SEM
// graphs of D2 at seed 1, scale 0.5 (about 248k edges each).
func TestEdgeListMatchesSeedMatchCold(t *testing.T) {
	spec, err := datagen.SpecByID("D2")
	if err != nil {
		t.Fatal(err)
	}
	opts := simgraph.Options{Families: []simgraph.Family{simgraph.SBSem}, KeepNoMatchGraphs: true}
	gs := simgraph.Generate(spec.Generate(1, 0.5), spec.KeyAttrs, opts)
	if len(gs) != 6 {
		t.Fatalf("%d SB-SEM graphs, want 6", len(gs))
	}
	for _, sg := range gs {
		t.Run(sg.Name, func(t *testing.T) { graph.CheckEdgeListMatchesSeed(t, sg.G) })
	}
}
