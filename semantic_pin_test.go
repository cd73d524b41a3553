package ccer

import (
	"testing"

	"github.com/ccer-go/ccer/internal/datagen"
	"github.com/ccer-go/ccer/internal/simgraph"
)

// TestSemanticGraphsPin holds the semantic kernels' output by literal
// checksums: the six SB-SEM graphs match-cold serves (D2, seed 1, scale
// 0.5, at most 4 tokens a name) and D2's six SA-SEM graphs at seed 1 and
// scale 0.1, whose full profile texts exercise the six-token truncation
// of the relaxed WMS and token matrices larger than 4 x 4.
func TestSemanticGraphsPin(t *testing.T) {
	coldPins := []uint64{
		0x10a10c02c51cea87, 0xb6a1c8c4df3e3231, 0xcfc1365d35bb0cc5,
		0xd2de2d4eafbf659c, 0xf1801b976f9417ec, 0x50b1c5197feceb2a,
	}
	cold := matchColdGraphs()
	if len(cold) != len(coldPins) {
		t.Fatalf("match-cold has %d graphs, pinned %d", len(cold), len(coldPins))
	}
	for i, g := range cold {
		if got := g.Checksum(); got != coldPins[i] {
			t.Errorf("match-cold graph %d: checksum %016x, pinned %016x", i, got, coldPins[i])
		}
	}

	saPins := map[string]uint64{
		"fasttext/Cosine":     0xdb12255b228aae61,
		"fasttext/Euclidean":  0x6c5804b76b70ff87,
		"fasttext/WordMovers": 0xee92dffdb81177e5,
		"albert/Cosine":       0x015ca5b4ca917aad,
		"albert/Euclidean":    0x5f1d9461d773d42d,
		"albert/WordMovers":   0x7d049a03740b9c03,
	}
	spec, err := datagen.SpecByID("D2")
	if err != nil {
		t.Fatal(err)
	}
	task := spec.Generate(1, 0.1)
	opts := simgraph.Options{Families: []simgraph.Family{simgraph.SASem}, KeepNoMatchGraphs: true}
	sa := simgraph.Generate(task, spec.KeyAttrs, opts)
	if len(sa) != len(saPins) {
		t.Fatalf("SA-SEM has %d graphs, pinned %d", len(sa), len(saPins))
	}
	for _, sg := range sa {
		if pin, ok := saPins[sg.Name]; !ok || sg.G.Checksum() != pin {
			t.Errorf("SA-SEM %s: checksum %016x, pinned %016x", sg.Name, sg.G.Checksum(), pin)
		}
	}
}
