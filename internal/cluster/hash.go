// Package cluster turns a set of independent erserve nodes into one
// replicated service: a typed client for the erserve JSON API,
// per-backend health probing and circuit breaking, and a Router that
// places graphs on replicas by rendezvous hashing, fans writes to the
// replica set, reads from any healthy replica with hedging, and keeps
// serving through the loss of any single backend.
//
// The placement contract leans on the store's per-name versioning
// (internal/serve): every replica that applies the same write sequence
// to a graph name reports the same version, so a match response is
// byte-identical no matter which replica computed it — the property the
// chaos harness (chaos_test.go) asserts while killing backends.
package cluster

import (
	"hash/fnv"
	"sort"
)

// Replicas returns the r backends responsible for name, most preferred
// first, by rendezvous (highest-random-weight) hashing: every node
// scores (backend, name) with the same hash and picks the top r, so
// placement needs no coordination, is stable under backend-list
// reordering, and loses only 1/len(backends) of names when a backend
// is added or removed. r is clamped to len(backends); the first entry
// is the name's owner.
func Replicas(name string, backends []string, r int) []string {
	if len(backends) == 0 {
		return nil
	}
	if r <= 0 {
		r = 1
	}
	if r > len(backends) {
		r = len(backends)
	}
	type scored struct {
		backend string
		score   uint64
	}
	ranked := make([]scored, len(backends))
	for i, b := range backends {
		ranked[i] = scored{backend: b, score: rendezvousScore(b, name)}
	}
	// Ties (possible only by hash collision) break on the backend
	// string so every node still ranks identically.
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].backend < ranked[j].backend
	})
	out := make([]string, r)
	for i := 0; i < r; i++ {
		out[i] = ranked[i].backend
	}
	return out
}

// rendezvousScore hashes the (backend, name) pair: FNV-1a over each
// string, combined and finished with the splitmix64 avalanche. Raw
// FNV-1a alone is not enough — backend URLs that differ by one
// character produce correlated scores across names (one backend can
// lose every single ranking), and the finalizer's full-avalanche mixing
// restores a uniform win share. Everything here is fixed arithmetic:
// deterministic across processes and Go versions, so placement computed
// by a router, a client, or an operator's script always agrees.
func rendezvousScore(backend, name string) uint64 {
	x := fnv64a(backend) + 0x9E3779B97F4A7C15*fnv64a(name)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

func fnv64a(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}
