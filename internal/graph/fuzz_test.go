package graph

import (
	"strings"
	"testing"
)

// FuzzReadEdgeList hardens the edge-list parser: arbitrary input must
// either fail with an error or produce a structurally valid graph that
// round-trips. It runs on its corpus only: without a node cap a header
// of up to MaxInt32 nodes a side may legitimately ask for gigabytes.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("2 2\n0 0 0.5\n1 1 0.75\n")
	f.Add("3 1\n# comment\n\n0 0 1\n")
	f.Add("0 0\n")
	f.Add("x")
	f.Add("2 2\n0 0 NaN\n")
	f.Add("2 2\n-1 0 0.5\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parsed graph invalid: %v", err)
		}
		var buf strings.Builder
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := ReadEdgeList(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.NumEdges() != g.NumEdges() || back.N1() != g.N1() || back.N2() != g.N2() {
			t.Fatal("round trip changed the graph")
		}
	})
}

// FuzzReadEdgeListMax runs the decoder as the network calls it, capped
// at erserve's default of 1<<21 nodes: an accepted graph must fit the
// cap, be structurally valid, and its written-back edge list must parse
// to the same checksum.
func FuzzReadEdgeListMax(f *testing.F) {
	const maxNodes = 1 << 21
	f.Add("2 2\n0 0 0.5\n1 1 0.75\n")
	f.Add("3 1\n# comment\n\n0 0 1\n0 0 0.25\n")
	f.Add("0 0\n")
	f.Add("2097152 0\n")
	f.Add("2 3\n1 2 -0\n0 2 1e-300\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeListMax(strings.NewReader(input), maxNodes)
		if err != nil {
			return
		}
		if g.N1()+g.N2() > maxNodes {
			t.Fatalf("accepted %d+%d nodes above the cap of %d", g.N1(), g.N2(), maxNodes)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parsed graph invalid: %v", err)
		}
		var buf strings.Builder
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := ReadEdgeListMax(strings.NewReader(buf.String()), maxNodes)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.Checksum() != g.Checksum() {
			t.Fatalf("round trip changed the checksum: %016x -> %016x", g.Checksum(), back.Checksum())
		}
	})
}
