package crashtest_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/ccer-go/ccer/internal/dataset"
	"github.com/ccer-go/ccer/internal/durable"
	"github.com/ccer-go/ccer/internal/durable/crashtest"
	"github.com/ccer-go/ccer/internal/graph"
)

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

func recOf(name string, version int64, g *graph.Bipartite) durable.GraphRecord {
	return durable.GraphRecord{
		Name: name, Version: version, Checksum: g.Checksum(),
		Source: "generate", Created: time.Unix(0, version),
	}
}

// ackedState tracks what the workload was acknowledged: the reference
// the recovered state must match exactly.
type ackedState struct {
	live       map[string]durable.GraphRecord
	maxAckedVn int64
}

func newAcked() *ackedState {
	return &ackedState{live: map[string]durable.GraphRecord{}}
}

// workload drives a fixed mutation sequence against the log, updating
// acked only for mutations that returned nil. Errors are expected (the
// armed fault fires somewhere in the middle) and stop nothing: later
// ops run too, modeling an application that keeps trying.
func workload(t testing.TB, l *durable.Log, acked *ackedState) {
	t.Helper()
	g1 := testGraph(t, 0.9, 0.8)
	g2 := testGraph(t, 0.7)
	g3 := testGraph(t, 0.6, 0.5)
	gt := dataset.NewGroundTruth([][2]int32{{0, 0}})
	step := func(rec durable.GraphRecord, g *graph.Bipartite, gt *dataset.GroundTruth) {
		if err := l.PutGraph(rec, g, gt); err == nil {
			acked.live[rec.Name] = rec
			if rec.Version > acked.maxAckedVn {
				acked.maxAckedVn = rec.Version
			}
		}
	}
	step(recOf("a", 1, g1), g1, nil)
	step(recOf("b", 2, g2), g2, gt)
	if err := l.DeleteGraph("a"); err == nil {
		delete(acked.live, "a")
	}
	_ = l.Compact()
	step(recOf("a", 3, g3), g3, nil)
	step(recOf("c", 4, g1), g1, gt)
}

// runWorkload opens a log over a fresh fault-wrapped MemFS, arms the
// given fault after Open (recovery of an empty directory is not under
// attack here), runs the workload, and returns the filesystem and the
// acked reference.
func runWorkload(t testing.TB, arm func(*crashtest.FaultFS, *crashtest.MemFS)) (*crashtest.MemFS, *crashtest.FaultFS, *ackedState) {
	t.Helper()
	mem := crashtest.NewMemFS()
	faulty := crashtest.NewFaultFS(mem)
	l, _, err := durable.Open(durable.Config{Dir: "data", FS: faulty, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if arm != nil {
		arm(faulty, mem)
	}
	acked := newAcked()
	workload(t, l, acked)
	return mem, faulty, acked
}

// verifyRecovery opens the post-crash image and checks the central
// durability invariant: the recovered live set is EXACTLY the acked set
// (same names, versions, bit-identical graph content by checksum), and
// the version counter never runs behind an acknowledged commit.
func verifyRecovery(t testing.TB, image *crashtest.MemFS, acked *ackedState, label string) {
	t.Helper()
	_, rec, err := durable.Open(durable.Config{Dir: "data", FS: image, CompactEvery: -1})
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	got := map[string]durable.RecoveredGraph{}
	for _, rg := range rec.Graphs {
		got[rg.Record.Name] = rg
	}
	if len(got) != len(acked.live) {
		t.Fatalf("%s: recovered %d graphs, acked %d (%v vs %v)", label, len(got), len(acked.live), names(got), ackedNames(acked))
	}
	for name, want := range acked.live {
		rg, ok := got[name]
		if !ok {
			t.Fatalf("%s: acked graph %q lost", label, name)
		}
		if rg.Record.Version != want.Version {
			t.Fatalf("%s: graph %q recovered at version %d, acked %d", label, name, rg.Record.Version, want.Version)
		}
		if sum := rg.Graph.Checksum(); sum != want.Checksum {
			t.Fatalf("%s: graph %q content %016x, acked %016x", label, name, sum, want.Checksum)
		}
	}
	if rec.NextVersion < acked.maxAckedVn {
		t.Fatalf("%s: NextVersion %d behind acked %d", label, rec.NextVersion, acked.maxAckedVn)
	}
}

func names(m map[string]durable.RecoveredGraph) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	return out
}

func ackedNames(a *ackedState) []string {
	out := make([]string, 0, len(a.live))
	for n := range a.live {
		out = append(out, n)
	}
	return out
}

// TestCrashPointEnumeration simulates a power cut at EVERY filesystem
// operation of the workload, one run per (operation kind, index):
// the fault crashes the MemFS (open handles die, unsynced bytes are
// doomed), the op returns an error, and recovery from the crash image
// must reproduce exactly what was acknowledged — unacknowledged
// mutations must be invisible, acknowledged ones intact.
func TestCrashPointEnumeration(t *testing.T) {
	// Count the ops of a fault-free run to know the crash points.
	_, counter, _ := runWorkload(t, nil)
	ops := []string{"write", "sync", "syncdir", "rename", "create", "append", "remove"}
	points := 0
	for _, op := range ops {
		n := counter.OpCount(op)
		if op == "write" && n == 0 {
			t.Fatal("workload performed no writes; harness is not exercising anything")
		}
		for k := 0; k < n; k++ {
			points++
			label := fmt.Sprintf("%s#%d", op, k)
			mem, _, acked := runWorkload(t, func(f *crashtest.FaultFS, m *crashtest.MemFS) {
				f.Inject(crashtest.Fault{Point: op, After: k, Crash: m.Crash})
			})
			// Clone() yields the on-disk state as a crash leaves it:
			// synced prefixes only.
			verifyRecovery(t, mem.Clone(), acked, label)
		}
	}
	if points < 25 {
		t.Fatalf("only %d crash points enumerated; the workload is too small to mean anything", points)
	}
	t.Logf("verified %d crash points", points)
}

// TestErrorInjectionKeepsAckedState: the fault returns an error but no
// crash fires. An errored mutation is refused (never acked), its
// journal bytes — if any landed — stay unsynced behind the sticky
// failure, so the durable image (synced prefixes) still matches the
// acked set exactly.
func TestErrorInjectionKeepsAckedState(t *testing.T) {
	_, counter, _ := runWorkload(t, nil)
	for _, op := range []string{"write", "sync", "create", "rename", "syncdir"} {
		n := counter.OpCount(op)
		for k := 0; k < n; k++ {
			label := fmt.Sprintf("err:%s#%d", op, k)
			mem, _, acked := runWorkload(t, func(f *crashtest.FaultFS, m *crashtest.MemFS) {
				f.Inject(crashtest.Fault{Point: op, After: k})
			})
			verifyRecovery(t, mem.Clone(), acked, label)
		}
	}
}

// TestShortWriteTearsFrame: a torn journal write (prefix lands, call
// fails) latches the log and is discarded as a torn tail at recovery.
func TestShortWriteTearsFrame(t *testing.T) {
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
	faulty.Inject(crashtest.Fault{Point: "write:wal", Short: 3})
	g2 := testGraph(t, 0.8)
	if err := l.PutGraph(recOf("torn", 2, g2), g2, nil); !errors.Is(err, durable.ErrLogFailed) {
		t.Fatalf("torn write = %v, want ErrLogFailed", err)
	}
	// Restart without a power cut: the 3 stray bytes are on disk.
	_, rec, err := durable.Open(durable.Config{Dir: "data", FS: mem, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rec.TornSegments != 1 {
		t.Fatalf("TornSegments = %d, want 1", rec.TornSegments)
	}
	if len(rec.Graphs) != 1 || rec.Graphs[0].Record.Name != "ok" {
		t.Fatalf("recovered %+v, want the pre-tear graph only", rec.Graphs)
	}
}

// TestDroppedFsyncLosesData documents why the fsync is load-bearing: a
// storage stack that lies about fsync (DropSync) breaks the durability
// guarantee — the acked commit vanishes in the crash image. The test
// asserts the HARNESS exposes this: if it ever stops failing, the
// fault injection itself has rotted.
func TestDroppedFsyncLosesData(t *testing.T) {
	mem := crashtest.NewMemFS()
	faulty := crashtest.NewFaultFS(mem)
	l, _, err := durable.Open(durable.Config{Dir: "data", FS: faulty, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	faulty.Inject(crashtest.Fault{Point: "sync:wal", DropSync: true, Persistent: true})
	g := testGraph(t, 0.9)
	if err := l.PutGraph(recOf("acked-but-doomed", 1, g), g, nil); err != nil {
		t.Fatalf("put with lying fsync should appear to succeed: %v", err)
	}
	_, rec, err := durable.Open(durable.Config{Dir: "data", FS: mem.Clone(), CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Graphs) != 0 {
		t.Fatalf("crash image kept %d graphs despite dropped fsyncs; DropSync injection is broken", len(rec.Graphs))
	}
}

// TestOrphanSnapshotCollected: a crash between the content-file write
// and the journal append leaves an orphan snapshot; recovery must not
// surface it, and the next compaction sweeps it.
func TestOrphanSnapshotCollected(t *testing.T) {
	mem := crashtest.NewMemFS()
	faulty := crashtest.NewFaultFS(mem)
	l, _, err := durable.Open(durable.Config{Dir: "data", FS: faulty, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t, 0.9)
	if err := l.PutGraph(recOf("keep", 1, g), g, nil); err != nil {
		t.Fatal(err)
	}
	// Crash on the first wal write after arming: the orphan's snapshot
	// is durable (content files commit before the journal), its record
	// is not.
	orphan := testGraph(t, 0.123)
	faulty.Inject(crashtest.Fault{Point: "write:wal", Crash: mem.Crash})
	_ = l.PutGraph(recOf("orphan", 2, orphan), orphan, nil)

	image := mem.Clone()
	l2, rec, err := durable.Open(durable.Config{Dir: "data", FS: image, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Graphs) != 1 || rec.Graphs[0].Record.Name != "keep" {
		t.Fatalf("recovered %+v, want keep only (orphan must stay invisible)", rec.Graphs)
	}
	if err := l2.Compact(); err != nil {
		t.Fatal(err)
	}
	orphanPath := fmt.Sprintf("data/graphs/%016x.edges", orphan.Checksum())
	if _, err := image.Stat(orphanPath); err == nil {
		t.Fatal("orphan snapshot survived compaction GC")
	}
	keepPath := fmt.Sprintf("data/graphs/%016x.edges", g.Checksum())
	if _, err := image.Stat(keepPath); err != nil {
		t.Fatalf("live snapshot collected: %v", err)
	}
}
