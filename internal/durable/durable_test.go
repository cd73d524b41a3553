package durable_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/ccer-go/ccer/internal/dataset"
	"github.com/ccer-go/ccer/internal/durable"
	"github.com/ccer-go/ccer/internal/durable/crashtest"
	"github.com/ccer-go/ccer/internal/graph"
)

// testGraph builds a tiny bipartite graph whose content (and so its
// checksum) is determined by the weights.
func testGraph(t testing.TB, weights ...float64) *graph.Bipartite {
	t.Helper()
	b := graph.NewBuilder(len(weights), len(weights))
	for i, w := range weights {
		b.Add(int32(i), int32(i), w)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func openLog(t testing.TB, fs durable.FS) (*durable.Log, *durable.Recovered) {
	t.Helper()
	l, rec, err := durable.Open(durable.Config{Dir: "data", FS: fs, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	return l, rec
}

func put(t testing.TB, l *durable.Log, name string, version int64, g *graph.Bipartite, gt *dataset.GroundTruth) durable.GraphRecord {
	t.Helper()
	rec := durable.GraphRecord{
		Name:     name,
		Version:  version,
		Checksum: g.Checksum(),
		Source:   "generate",
		Dataset:  "D2",
		Seed:     1,
		Scale:    0.02,
		Created:  time.Unix(0, version*1000),
	}
	if err := l.PutGraph(rec, g, gt); err != nil {
		t.Fatalf("PutGraph(%s): %v", name, err)
	}
	return rec
}

func TestLogPutReopenRecovers(t *testing.T) {
	mem := crashtest.NewMemFS()
	l, rec := openLog(t, mem)
	if len(rec.Graphs) != 0 || rec.NextVersion != 0 {
		t.Fatalf("fresh dir recovered %d graphs, next version %d", len(rec.Graphs), rec.NextVersion)
	}
	g1 := testGraph(t, 0.9, 0.8)
	g2 := testGraph(t, 0.7)
	g3 := testGraph(t, 0.6, 0.5, 0.4)
	gt := dataset.NewGroundTruth([][2]int32{{0, 0}, {1, 1}})
	put(t, l, "a", 1, g1, nil)
	put(t, l, "b", 2, g2, gt)
	put(t, l, "gone", 3, g3, nil)
	if err := l.DeleteGraph("gone"); err != nil {
		t.Fatal(err)
	}
	put(t, l, "a", 4, g3, nil) // overwrite: name a now holds g3
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec2 := openLog(t, mem)
	if rec2.NextVersion != 4 {
		t.Fatalf("NextVersion = %d, want 4 (deleted version still counts)", rec2.NextVersion)
	}
	byName := map[string]durable.RecoveredGraph{}
	for _, rg := range rec2.Graphs {
		byName[rg.Record.Name] = rg
	}
	if len(byName) != 2 {
		t.Fatalf("recovered %d graphs, want 2 (a, b): %v", len(byName), rec2.Graphs)
	}
	if got := byName["a"]; got.Record.Version != 4 || got.Graph.Checksum() != g3.Checksum() {
		t.Fatalf("a recovered as version %d checksum %x; want 4 / %x",
			got.Record.Version, got.Graph.Checksum(), g3.Checksum())
	}
	if got := byName["b"]; got.GT == nil || got.GT.Len() != 2 {
		t.Fatalf("b lost its ground truth: %+v", got.GT)
	}
	if _, dead := byName["gone"]; dead {
		t.Fatal("deleted graph resurrected")
	}
}

// TestFreshDirHasNoReps: Open, a put with ground truth and Close leave
// no reps/ directory, where older versions spilled representation-cache
// inputs.
func TestFreshDirHasNoReps(t *testing.T) {
	dir := t.TempDir()
	l, _, err := durable.Open(durable.Config{Dir: dir, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t, 0.9)
	put(t, l, "a", 1, g, dataset.NewGroundTruth([][2]int32{{0, 0}}))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "reps")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stat reps/ after open, put and close = %v, want not exist", err)
	}
}

// TestLogTornTailDiscarded appends garbage (synced, so it survives the
// crash model) to the active segment and checks recovery stops at the
// tear, recovers everything before it, and never appends to the torn
// segment again.
func TestLogTornTailDiscarded(t *testing.T) {
	mem := crashtest.NewMemFS()
	l, _ := openLog(t, mem)
	put(t, l, "a", 1, testGraph(t, 0.9), nil)
	put(t, l, "b", 2, testGraph(t, 0.8), nil)
	// A torn frame: half a header, fsync'd to stable storage.
	seg, err := mem.Append("data/wal/wal-0000000001.log")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.Write([]byte{0xff, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	if err := seg.Sync(); err != nil {
		t.Fatal(err)
	}
	seg.Close()

	crashed := mem.Clone()
	l2, rec := openLog(t, crashed)
	if len(rec.Graphs) != 2 {
		t.Fatalf("recovered %d graphs, want 2", len(rec.Graphs))
	}
	if rec.TornSegments != 1 {
		t.Fatalf("TornSegments = %d, want 1", rec.TornSegments)
	}
	// The next commit must land in a fresh segment, not after the tear —
	// a second recovery sees all three graphs despite the lingering junk.
	put(t, l2, "c", 3, testGraph(t, 0.7), nil)
	_, rec2 := openLog(t, crashed.Clone())
	if len(rec2.Graphs) != 3 {
		t.Fatalf("after post-tear put: recovered %d graphs, want 3", len(rec2.Graphs))
	}
}

// TestLogStickyJournalFailure checks that after one failed journal
// append every later mutation fails too (a half-written frame would
// orphan them at replay), while the state before the failure stays
// recoverable.
func TestLogStickyJournalFailure(t *testing.T) {
	mem := crashtest.NewMemFS()
	faulty := crashtest.NewFaultFS(mem)
	l, _, err := durable.Open(durable.Config{Dir: "data", FS: faulty, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t, 0.9)
	if err := l.PutGraph(recOf("ok", 1, g), g, nil); err != nil {
		t.Fatal(err)
	}
	faulty.Inject(crashtest.Fault{Point: "sync:wal"})
	g2 := testGraph(t, 0.8)
	if err := l.PutGraph(recOf("lost", 2, g2), g2, nil); !errors.Is(err, durable.ErrLogFailed) {
		t.Fatalf("put through failed fsync = %v, want ErrLogFailed", err)
	}
	// The fault was single-shot; the journal must refuse anyway.
	g3 := testGraph(t, 0.7)
	if err := l.PutGraph(recOf("after", 3, g3), g3, nil); !errors.Is(err, durable.ErrLogFailed) {
		t.Fatalf("put after sticky failure = %v, want ErrLogFailed", err)
	}
	if err := l.DeleteGraph("ok"); !errors.Is(err, durable.ErrLogFailed) {
		t.Fatalf("delete after sticky failure = %v, want ErrLogFailed", err)
	}

	_, rec := openLog(t, mem.Clone())
	if len(rec.Graphs) != 1 || rec.Graphs[0].Record.Name != "ok" {
		t.Fatalf("recovered %+v, want exactly the pre-failure graph", rec.Graphs)
	}
}

func recOf(name string, version int64, g *graph.Bipartite) durable.GraphRecord {
	return durable.GraphRecord{
		Name: name, Version: version, Checksum: g.Checksum(),
		Source: "generate", Created: time.Unix(0, version),
	}
}

// TestLogContentFileFailureNotSticky: a failure while writing a snapshot
// file aborts that put but no journal bytes moved, so the log keeps
// accepting mutations.
func TestLogContentFileFailureNotSticky(t *testing.T) {
	mem := crashtest.NewMemFS()
	faulty := crashtest.NewFaultFS(mem)
	l, _, err := durable.Open(durable.Config{Dir: "data", FS: faulty, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	faulty.Inject(crashtest.Fault{Point: "create:graphs"})
	g := testGraph(t, 0.9)
	perr := l.PutGraph(recOf("a", 1, g), g, nil)
	if !errors.Is(perr, crashtest.ErrInjected) {
		t.Fatalf("put through failed snapshot = %v, want ErrInjected", perr)
	}
	if errors.Is(perr, durable.ErrLogFailed) {
		t.Fatal("snapshot failure must not latch the journal")
	}
	if err := l.PutGraph(recOf("a", 2, g), g, nil); err != nil {
		t.Fatalf("retry after snapshot failure: %v", err)
	}
	_, rec := openLog(t, mem.Clone())
	if len(rec.Graphs) != 1 || rec.Graphs[0].Record.Version != 2 {
		t.Fatalf("recovered %+v, want the retried put only", rec.Graphs)
	}
}

// TestLogCompactionTruncatesJournal: after Compact the journal records
// live in the manifest, old segments and unreferenced content files are
// gone, and recovery replays zero records.
func TestLogCompactionTruncatesJournal(t *testing.T) {
	mem := crashtest.NewMemFS()
	l, _ := openLog(t, mem)
	gone := testGraph(t, 0.5)
	put(t, l, "keep", 1, testGraph(t, 0.9), nil)
	put(t, l, "gone", 2, gone, nil)
	if err := l.DeleteGraph("gone"); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	m := l.Metrics()
	if m.CompactionsTotal != 1 {
		t.Fatalf("CompactionsTotal = %d, want 1", m.CompactionsTotal)
	}
	if m.SnapshotBytes <= 0 {
		t.Fatal("SnapshotBytes not tracked")
	}
	// The deleted graph's snapshot is unreferenced -> collected.
	if _, err := mem.Stat(fmt.Sprintf("data/graphs/%016x.edges", gone.Checksum())); err == nil {
		t.Fatal("unreferenced snapshot survived GC")
	}
	// Only the fresh (post-roll) segment remains.
	segs, err := mem.ReadDir("data/wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("wal segments after compact = %v, want exactly the active one", segs)
	}

	_, rec := openLog(t, mem.Clone())
	if rec.JournalRecords != 0 {
		t.Fatalf("replayed %d journal records after compaction, want 0", rec.JournalRecords)
	}
	if len(rec.Graphs) != 1 || rec.Graphs[0].Record.Name != "keep" {
		t.Fatalf("recovered %+v, want keep only", rec.Graphs)
	}
	if rec.NextVersion != 2 {
		t.Fatalf("NextVersion through manifest = %d, want 2", rec.NextVersion)
	}
}

// TestLogCorruptSnapshotRefusesOpen: a graph snapshot whose bytes no
// longer match the committed checksum must fail recovery loudly, not
// serve wrong data.
func TestLogCorruptSnapshotRefusesOpen(t *testing.T) {
	mem := crashtest.NewMemFS()
	l, _ := openLog(t, mem)
	g := testGraph(t, 0.9)
	put(t, l, "a", 1, g, nil)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Overwrite the snapshot with a parseable edge list of different
	// content (bit rot that still decodes).
	other := testGraph(t, 0.1)
	f, err := mem.Create(fmt.Sprintf("data/graphs/%016x.edges", g.Checksum()))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.WriteEdgeList(f); err != nil {
		t.Fatal(err)
	}
	f.Sync()
	f.Close()

	_, _, err = durable.Open(durable.Config{Dir: "data", FS: mem, CompactEvery: -1})
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("open over corrupt snapshot = %v, want checksum error", err)
	}
}

// TestLogRandomOpsRecoverExactly is the Log-level property test: a
// random mutation sequence (puts, deletes, overwrites and mid-stream
// compactions) applied through the Log recovers, from a
// crash-image clone of the filesystem, to exactly the reference model —
// names, versions, checksums, tombstones, next-version counter.
func TestLogRandomOpsRecoverExactly(t *testing.T) {
	graphs := []*graph.Bipartite{
		testGraph(t, 0.1), testGraph(t, 0.2), testGraph(t, 0.3),
		testGraph(t, 0.4, 0.5), testGraph(t, 0.6, 0.7, 0.8),
	}
	names := []string{"a", "b", "c"}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mem := crashtest.NewMemFS()
		l, _ := openLog(t, mem)
		model := map[string]durable.GraphRecord{}
		var nextVersion int64
		ops := 5 + rng.Intn(25)
		for i := 0; i < ops; i++ {
			switch rng.Intn(5) {
			case 0, 1, 2: // put (overwrites included via the small namespace)
				name := names[rng.Intn(len(names))]
				g := graphs[rng.Intn(len(graphs))]
				nextVersion++
				var gt *dataset.GroundTruth
				if rng.Intn(2) == 0 {
					gt = dataset.NewGroundTruth([][2]int32{{0, int32(rng.Intn(3))}})
				}
				rec := durable.GraphRecord{
					Name: name, Version: nextVersion, Checksum: g.Checksum(),
					Source: "generate", Created: time.Unix(0, nextVersion),
				}
				if err := l.PutGraph(rec, g, gt); err != nil {
					t.Fatal(err)
				}
				model[name] = rec
			case 3: // delete (often of an absent name)
				name := names[rng.Intn(len(names))]
				if err := l.DeleteGraph(name); err != nil {
					t.Fatal(err)
				}
				delete(model, name)
			case 4: // compaction at an arbitrary point
				if err := l.Compact(); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Recover from the crash image (unsynced data discarded) — every
		// acknowledged mutation above must still be there.
		_, rec := openLog(t, mem.Clone())
		if rec.NextVersion != nextVersion {
			t.Logf("seed %d: NextVersion %d, want %d", seed, rec.NextVersion, nextVersion)
			return false
		}
		if len(rec.Graphs) != len(model) {
			t.Logf("seed %d: recovered %d graphs, want %d", seed, len(rec.Graphs), len(model))
			return false
		}
		for _, rg := range rec.Graphs {
			want, ok := model[rg.Record.Name]
			if !ok || rg.Record.Version != want.Version || rg.Graph.Checksum() != want.Checksum {
				t.Logf("seed %d: graph %q diverged: got v%d/%x want v%d/%x", seed,
					rg.Record.Name, rg.Record.Version, rg.Graph.Checksum(), want.Version, want.Checksum)
				return false
			}
		}
		l.Close()
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestLogStaleManifestNotReused: a crash after MANIFEST-<seq> is
// renamed into place but before CURRENT flips to it leaves a stale
// manifest file whose name the next life's first compaction wants.
// That compaction must overwrite the leftover with the current state:
// reusing the dead life's file would point CURRENT at a stale snapshot
// while GC deletes the journal segments carrying every record
// committed since — losing acknowledged writes. (Found by the serve
// overload harness: the kill -9 test lost acked graphs whenever the
// SIGKILL landed inside this window of a 25ms-period compactor.)
func TestLogStaleManifestNotReused(t *testing.T) {
	mem := crashtest.NewMemFS()
	faulty := crashtest.NewFaultFS(mem)
	l, _, err := durable.Open(durable.Config{Dir: "data", FS: faulty, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	ga := testGraph(t, 0.9)
	put(t, l, "a", 1, ga, nil)
	// Die between the manifest rename and the CURRENT flip: MANIFEST-1
	// is fully on disk, CURRENT does not name it.
	faulty.Inject(crashtest.Fault{Point: "create:tmp-CURRENT"})
	if err := l.Compact(); !errors.Is(err, crashtest.ErrInjected) {
		t.Fatalf("compact with CURRENT fault = %v, want ErrInjected", err)
	}
	if _, err := mem.Stat("data/MANIFEST-0000000001"); err != nil {
		t.Fatalf("stale manifest missing from the crash image: %v", err)
	}

	// Next life: recovery replays the journal (CURRENT never moved), a
	// new graph is acknowledged, and compaction wants the very manifest
	// name the dead life left behind.
	img := mem.Clone()
	l2, rec := openLog(t, img)
	if len(rec.Graphs) != 1 || rec.Graphs[0].Record.Name != "a" {
		t.Fatalf("second life recovered %+v, want graph a", rec.Graphs)
	}
	gb := testGraph(t, 0.8)
	put(t, l2, "b", 2, gb, nil)
	if err := l2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	// Third life: both acknowledged graphs must survive the compaction.
	_, rec3 := openLog(t, img)
	names := map[string]uint64{}
	for _, rg := range rec3.Graphs {
		names[rg.Record.Name] = rg.Record.Checksum
	}
	if names["a"] != ga.Checksum() || names["b"] != gb.Checksum() {
		t.Fatalf("recovered %v; the stale MANIFEST-1 swallowed an acked graph", names)
	}
}
