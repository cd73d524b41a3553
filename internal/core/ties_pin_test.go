package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// matchTiesPin is the FNV-1a checksum of every pair that paperMatchers(1) and
// HopcroftKarp return on the quantizedCases graphs at every
// seedThresholds point: 486 (graph, threshold) points, 4,374 calls.
const matchTiesPin = 0x97e787e4b2fbd425

// TestMatchersTiesPin holds the matchers' output on graphs whose weights
// tie often, where BMC, EXC, RCA and the other adjacency scans depend on
// the (weight descending, neighbor ascending) order of each node's list.
// The encoding is TestMatchersColdPin's: per call and algorithm, the
// name, the pair count and the pairs (U, V and the bits of W).
func TestMatchersTiesPin(t *testing.T) {
	ms := append(paperMatchers(1), HopcroftKarp{})
	h := fnv.New64a()
	var buf [16]byte
	for _, tc := range quantizedCases {
		for seed := int64(1); seed <= 6; seed++ {
			g := quantizedGraph(seed, tc.n1, tc.n2, tc.edges, tc.levels)
			for _, thr := range seedThresholds(g) {
				for _, m := range ms {
					pairs := m.Match(g, thr)
					h.Write([]byte(m.Name()))
					binary.LittleEndian.PutUint64(buf[:8], uint64(len(pairs)))
					h.Write(buf[:8])
					for _, p := range pairs {
						binary.LittleEndian.PutUint32(buf[:4], uint32(p.U))
						binary.LittleEndian.PutUint32(buf[4:8], uint32(p.V))
						binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.W))
						h.Write(buf[:])
					}
				}
			}
		}
	}
	if got := h.Sum64(); got != matchTiesPin {
		t.Fatalf("matchers' pairs on the tie-heavy graphs hash to %#016x, pinned %#016x", got, uint64(matchTiesPin))
	}
}
