package ccer

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// matchColdPin is the FNV-1a checksum of every pair the eight matchers
// return on matchColdGraphs() at the first 48 points of
// BenchmarkMatchersCold's golden-ratio threshold sequence.
const matchColdPin = 0x233eb4de0cdb5451

// TestMatchersColdPin holds the eight matchers' output on the graphs
// match-cold serves: call i runs every algorithm on cold graph i mod 6
// at threshold 0.1 + 0.5*frac(i*φ), and one checksum covers each
// algorithm's name, pair count and pairs (U, V and the bits of W).
func TestMatchersColdPin(t *testing.T) {
	gs := matchColdGraphs()
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 48; i++ {
		_, frac := math.Modf(float64(i) * 0.6180339887498949)
		thr := 0.1 + 0.5*frac
		for _, m := range paperMatchers() {
			pairs := m.Match(gs[i%len(gs)], thr)
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
	if got := h.Sum64(); got != matchColdPin {
		t.Fatalf("matchers' pairs on the match-cold graphs hash to %#016x, pinned %#016x", got, uint64(matchColdPin))
	}
}
