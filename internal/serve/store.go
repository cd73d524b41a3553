// Package serve implements the erserve subsystem: a long-running
// Clean-Clean ER matching service exposing the module's matching engine
// over an HTTP JSON API. It keeps named similarity graphs resident in a
// versioned in-memory store, runs synchronous match batches through an
// LRU result cache, and executes threshold sweeps as asynchronous jobs
// on a bounded worker pool with context cancellation, so many requests
// amortize one graph build.
//
// The package is wired together by Server (see serve.go) and re-exported
// to library users through ccer.NewServer / ccer.ServeConfig.
package serve

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/ccer-go/ccer/internal/dataset"
	"github.com/ccer-go/ccer/internal/graph"
)

// GraphEntry is one named, versioned graph resident in the store.
type GraphEntry struct {
	// Name is the store key.
	Name string
	// Version increases monotonically per name (1 for the first Put,
	// bumped on every overwrite; the counter survives Delete within a
	// process lifetime), so (Name, Version) identifies one immutable
	// graph even after a name is overwritten. Result-cache keys embed
	// it, which invalidates cached matchings the moment a name points
	// at new content. Per-name — rather than store-global — assignment
	// is what makes replicas deterministic: every node that applies the
	// same sequence of writes to a name reports the same version,
	// regardless of which other names it happens to host, so a
	// cluster router can serve byte-identical match responses from any
	// replica (see internal/cluster).
	Version int64
	// Checksum fingerprints the graph content via the edge-list codec
	// (graph.Bipartite.Checksum).
	Checksum uint64
	// Graph is the immutable similarity graph itself.
	Graph *graph.Bipartite
	// GT is the ground truth when the graph came from a generated task;
	// nil for uploaded edge lists. Without it match replies carry no
	// metrics and sweeps are refused, since there is nothing to score.
	GT *dataset.GroundTruth
	// Source records provenance: "upload" or "generate".
	Source string
	// Dataset, Seed and Scale record the generation request for
	// generated graphs ("" / 0 / 0 for uploads).
	Dataset string
	Seed    int64
	Scale   float64
	// Created is the store-insertion time.
	Created time.Time
}

// Persister is the durability hook of the store (internal/durable
// behind an adapter). Both methods are called with the store mutex
// held, after the mutation is fully decided (name, version, timestamp
// assigned) and BEFORE it becomes visible: an error aborts the
// mutation, so the in-memory state never runs ahead of what a restart
// would recover — an acknowledged write is a recovered write, and a
// failed write is invisible.
type Persister interface {
	PersistPut(e *GraphEntry) error
	PersistDelete(name string) error
}

// Store is a goroutine-safe in-memory collection of named graphs,
// optionally backed by a Persister that makes every mutation durable
// before it becomes visible.
type Store struct {
	mu      sync.RWMutex
	entries map[string]*GraphEntry
	// versions holds the highest version ever assigned per name. It is
	// not pruned on Delete, so a deleted-and-recreated name keeps
	// counting upward and a sweep pinned to the dead version still
	// detects the replacement.
	versions map[string]int64
	// deleted records names removed by Delete, at the version the dead
	// entry held, until the name is recreated. Distinct from "versions
	// without an entry": a Put whose persistence failed burns a version
	// with no entry and no delete ever happened — treating that as a
	// tombstone would let an anti-entropy scan delete a peer's acked
	// copy.
	deleted  map[string]int64
	nextAuto int64
	persist  Persister
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		entries:  make(map[string]*GraphEntry),
		versions: make(map[string]int64),
		deleted:  make(map[string]int64),
	}
}

// SetPersister attaches the durability hook. Call before serving
// traffic; entries loaded through Load are not re-persisted.
func (s *Store) SetPersister(p Persister) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.persist = p
}

// Load preloads recovered entries without consulting the persister
// (they are, by definition, already durable) and fast-forwards each
// name's version counter so new mutations stay monotonic across
// restarts. The auto-name counter resumes past any recovered "g<n>"
// name. Counters of names deleted before the restart are not recovered
// (their entries are gone); those names restart at version 1, which is
// harmless because every version consumer — the result cache, sweep
// version pins — is in-memory state that did not survive the restart
// either.
func (s *Store) Load(entries []*GraphEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		s.entries[e.Name] = e
		var n int64
		if _, err := fmt.Sscanf(e.Name, "g%d", &n); err == nil && n > s.nextAuto {
			s.nextAuto = n
		}
		if e.Version > s.versions[e.Name] {
			s.versions[e.Name] = e.Version
		}
	}
}

// Put inserts the entry under e.Name, assigning the name's next
// version. An empty name is given an auto-generated "g1", "g2", ...
// name that is not already taken. Re-using a name replaces the previous
// entry; the fresh version keeps result-cache keys from resurrecting
// stale pairs. It returns the stored entry (with Name, Version and
// Created filled). With a persister attached the entry is made durable
// first; on error nothing becomes visible (the burnt version number is
// the only trace).
func (s *Store) Put(e *GraphEntry) (*GraphEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.Name == "" {
		for {
			s.nextAuto++
			name := fmt.Sprintf("g%d", s.nextAuto)
			if _, taken := s.entries[name]; !taken {
				e.Name = name
				break
			}
		}
	}
	e.Version = s.versions[e.Name] + 1
	s.versions[e.Name] = e.Version
	e.Created = time.Now()
	if s.persist != nil {
		if err := s.persist.PersistPut(e); err != nil {
			return nil, fmt.Errorf("serve: persist graph %q: %w", e.Name, err)
		}
	}
	s.entries[e.Name] = e
	delete(s.deleted, e.Name)
	return e, nil
}

// SyncPut applies a replica-sync write: store e as exactly version — the
// anti-entropy ingest path (internal/cluster repair streams a peer's
// edge list with the peer's version pinned, so a repaired replica
// reports the same (version, checksum) as its source instead of a
// locally-bumped counter that would diverge again on the next write).
//
// The write is conditional, which makes it idempotent and safe against
// racing live traffic:
//
//   - current version > version: a newer write landed here since the
//     repair planner looked — the sync is stale and is dropped, so a
//     slow repair stream can never clobber fresher data;
//   - current version == version with an identical live checksum (or a
//     tombstone — the name was deleted AT that version, and the delete
//     wins the tie): a duplicate or lost race, dropped;
//   - otherwise the entry becomes visible as exactly version and the
//     name's counter fast-forwards, so subsequent regular Puts continue
//     monotonically past it.
//
// It returns the visible entry (nil when nothing applied and nothing is
// stored) and whether the write applied.
func (s *Store) SyncPut(e *GraphEntry, version int64) (*GraphEntry, bool, error) {
	if version < 1 {
		return nil, false, fmt.Errorf("serve: sync version %d < 1", version)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, exists := s.entries[e.Name]
	curVersion := s.versions[e.Name]
	if curVersion > version {
		return cur, false, nil
	}
	if curVersion == version {
		if exists && cur.Checksum == e.Checksum {
			return cur, false, nil
		}
		if !exists {
			if _, dead := s.deleted[e.Name]; dead {
				return nil, false, nil // deleted at this version; the delete wins the tie
			}
			// No entry and no tombstone at this version: a local Put
			// burnt the counter when persistence failed. The peer holds
			// the acked copy — apply it.
		}
	}
	e.Version = version
	e.Created = time.Now()
	if s.persist != nil {
		if err := s.persist.PersistPut(e); err != nil {
			return cur, false, fmt.Errorf("serve: persist sync of %q: %w", e.Name, err)
		}
	}
	s.versions[e.Name] = version
	s.entries[e.Name] = e
	delete(s.deleted, e.Name)
	return e, true, nil
}

// Get returns the entry under name.
func (s *Store) Get(name string) (*GraphEntry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.entries[name]
	return e, ok
}

// Delete removes the entry under name, reporting whether it existed.
// With a persister attached the tombstone is made durable first; on
// error the entry stays.
func (s *Store) Delete(name string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.entries[name]
	if !ok {
		return false, nil
	}
	if s.persist != nil {
		if err := s.persist.PersistDelete(name); err != nil {
			return true, fmt.Errorf("serve: persist delete of %q: %w", name, err)
		}
	}
	delete(s.entries, name)
	// Tombstone at the dead entry's version — not at versions[name],
	// which may sit higher from a burnt (persist-failed) Put that a peer
	// committed; tombstoning there would let repair delete the peer's
	// acked copy.
	s.deleted[name] = cur.Version
	return true, nil
}

// SyncDelete applies a replica-sync delete: a peer's listing carries a
// tombstone for name at version, so the name was deleted there after the
// write this replica holds. It is conditional like SyncPut — dropped
// when a newer local write exists (current version counter > version),
// a no-op when nothing would change, and on apply it removes the entry
// (if any), fast-forwards the counter, and records the tombstone so this
// replica's own listing propagates the delete onward. Delete wins
// version ties, mirroring SyncPut. Reports whether state changed.
func (s *Store) SyncDelete(name string, version int64) (bool, error) {
	if version < 1 {
		return false, fmt.Errorf("serve: sync version %d < 1", version)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.versions[name] > version {
		return false, nil
	}
	_, exists := s.entries[name]
	if !exists && s.deleted[name] == version && s.versions[name] == version {
		return false, nil // duplicate
	}
	if exists && s.persist != nil {
		if err := s.persist.PersistDelete(name); err != nil {
			return false, fmt.Errorf("serve: persist sync delete of %q: %w", name, err)
		}
	}
	delete(s.entries, name)
	s.versions[name] = version
	s.deleted[name] = version
	return true, nil
}

// List returns the entries sorted by name.
func (s *Store) List() []*GraphEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*GraphEntry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Tombstones returns the names removed by Delete (and not since
// recreated), mapped to the version the dead entry held — the signal an
// anti-entropy scan needs to tell "replica A missed the create" (no
// tombstone anywhere) from "replica B missed the delete" (tombstone at
// or above B's entry version). Tombstones are in-memory only: a restart
// forgets them (deleted entries leave no trace for Load to recover),
// which bounds their cost and is why the cluster repair loop runs
// immediately on rejoin rather than waiting for the periodic scan.
func (s *Store) Tombstones() map[string]int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]int64, len(s.deleted))
	for name, v := range s.deleted {
		out[name] = v
	}
	return out
}

// ResidentBytes sums the stored graphs' resident bytes by component
// (graph.Bipartite.ResidentBytes).
func (s *Store) ResidentBytes() graph.Resident {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var sum graph.Resident
	for _, e := range s.entries {
		r := e.Graph.ResidentBytes()
		sum.V1 += r.V1
		sum.V2 += r.V2
		sum.PairWeights += r.PairWeights
	}
	return sum
}

// Len returns the number of stored graphs.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}
