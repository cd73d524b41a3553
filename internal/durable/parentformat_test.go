package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/ccer-go/ccer/internal/dataset"
	"github.com/ccer-go/ccer/internal/graph"
)

// legacyRepPayload is a kind-3 record as older versions journaled it
// when an attribute-profile bundle became warm: the kind byte, then the
// bundle's 128-bit content key as two little-endian u64s. Built by hand
// so the test keeps the format pinned whatever the encoder writes.
func legacyRepPayload(hi, lo uint64) []byte {
	var w byteWriter
	w.u8(3)
	w.u64(hi)
	w.u64(lo)
	return w.b
}

// legacyRepFrame frames legacyRepPayload.
func legacyRepFrame(t testing.TB, hi, lo uint64) []byte {
	t.Helper()
	return frameOfRaw(t, legacyRepPayload(hi, lo))
}

// legacyRepFile is the content of a reps/<key>.reps file: each text
// column as a u64 count followed by u32-length-prefixed strings.
func legacyRepFile(texts1, texts2 []string) []byte {
	var w byteWriter
	for _, col := range [][]string{texts1, texts2} {
		w.u64(uint64(len(col)))
		for _, s := range col {
			w.str(s)
		}
	}
	return w.b
}

// TestRecoverParentFormat opens a data directory written by hand in the
// layout of the version that spilled representation-cache entries: a
// manifest listing reps, reps/<key>.reps files, and a journal segment
// whose kind-3 records sit before, between and after puts and a delete.
// Open must recover exactly the graphs the manifest and the puts and
// deletes leave, with their checksums and ground truths, treat no
// segment as torn, and replay the put framed after a kind-3 record. The
// directory must then compact and reopen to the same graphs.
func TestRecoverParentFormat(t *testing.T) {
	dir := t.TempDir()
	write := func(rel string, data []byte) {
		t.Helper()
		p := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mkGraph := func(weights ...float64) *graph.Bipartite {
		t.Helper()
		b := graph.NewBuilder(len(weights), len(weights)+1)
		for i, w := range weights {
			b.Add(int32(i), int32(i+1), w)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatal(err)
		}
		write(fmt.Sprintf("graphs/%016x.edges", g.Checksum()), buf.Bytes())
		return g
	}
	gPlain, gTruth, gDoomed := mkGraph(0.9), mkGraph(0.8, 0.7), mkGraph(0.6)
	gFresh, gPlain2, gLast, gStale := mkGraph(0.5, 0.4, 0.3), mkGraph(0.2), mkGraph(0.1, 0.15), mkGraph(0.05)

	gt := dataset.NewGroundTruth([][2]int32{{0, 1}, {1, 2}})
	gtk := gtKey(gt)
	gtHex := fmt.Sprintf("%016x%016x", gtk.Hi, gtk.Lo)
	write("gts/"+gtHex+".json", []byte(`{"pairs":[[0,1],[1,2]]}`+"\n"))

	repKeys := [][2]uint64{{0x1111, 0x2222}, {0x3333, 0x4444}, {0x5555, 0x6666}, {0x7777, 0x8888}, {0x9999, 0xaaaa}}
	for i, k := range repKeys {
		write(fmt.Sprintf("reps/%016x%016x.reps", k[0], k[1]),
			legacyRepFile([]string{fmt.Sprintf("left %d", i), "beta"}, []string{"gamma"}))
	}

	write("MANIFEST-0000000003", []byte(fmt.Sprintf(`{
 "seq": 3,
 "next_version": 3,
 "wal_floor": 5,
 "graphs": [
  {"name": "plain", "version": 1, "checksum": "%016x", "source": "upload", "created_ns": 100},
  {"name": "truth", "version": 2, "checksum": "%016x", "source": "generate", "dataset": "D2", "seed": 7, "scale": 0.02, "created_ns": 200, "gt": "%s"},
  {"name": "doomed", "version": 3, "checksum": "%016x", "source": "upload", "created_ns": 300}
 ],
 "reps": ["%016x%016x"]
}`, gPlain.Checksum(), gTruth.Checksum(), gtHex, gDoomed.Checksum(), repKeys[0][0], repKeys[0][1])))
	write("CURRENT", []byte("MANIFEST-0000000003\n"))

	rec := func(name string, version int64, g *graph.Bipartite, withGT bool) GraphRecord {
		r := GraphRecord{Name: name, Version: version, Checksum: g.Checksum(), Source: "generate",
			Dataset: "D2", Seed: 7, Scale: 0.02, Created: time.Unix(0, version*1000)}
		if withGT {
			r.GTRef, r.HasGT = gtk, true
		}
		return r
	}
	// A segment below the manifest's floor was folded into it already:
	// its records must not replay.
	write("wal/wal-0000000004.log", frameOf(t, record{kind: recPut, graph: rec("stale", 9, gStale, false)}))

	var seg []byte
	for _, f := range [][]byte{
		legacyRepFrame(t, repKeys[1][0], repKeys[1][1]),
		frameOf(t, record{kind: recPut, graph: rec("fresh", 4, gFresh, true)}),
		legacyRepFrame(t, repKeys[2][0], repKeys[2][1]),
		frameOf(t, record{kind: recPut, graph: rec("plain", 5, gPlain2, false)}),
		frameOf(t, record{kind: recDelete, name: "doomed"}),
		legacyRepFrame(t, repKeys[3][0], repKeys[3][1]),
		frameOf(t, record{kind: recPut, graph: rec("last", 6, gLast, false)}),
		legacyRepFrame(t, repKeys[4][0], repKeys[4][1]),
	} {
		seg = append(seg, f...)
	}
	const segRecords = 8
	write("wal/wal-0000000005.log", seg)

	want := map[string]struct {
		version int64
		sum     uint64
		gt      bool
	}{
		"plain": {5, gPlain2.Checksum(), false},
		"truth": {2, gTruth.Checksum(), true},
		"fresh": {4, gFresh.Checksum(), true},
		"last":  {6, gLast.Checksum(), false},
	}
	check := func(label string, r *Recovered) {
		t.Helper()
		if r.TornSegments != 0 {
			t.Fatalf("%s: %d torn segments, want 0", label, r.TornSegments)
		}
		if r.NextVersion != 6 {
			t.Fatalf("%s: NextVersion = %d, want 6", label, r.NextVersion)
		}
		if len(r.Graphs) != len(want) {
			var got []string
			for _, rg := range r.Graphs {
				got = append(got, rg.Record.Name)
			}
			t.Fatalf("%s: recovered %v, want %d graphs", label, got, len(want))
		}
		for _, rg := range r.Graphs {
			w, ok := want[rg.Record.Name]
			if !ok {
				t.Fatalf("%s: recovered unexpected graph %q", label, rg.Record.Name)
			}
			if rg.Record.Version != w.version || rg.Record.Checksum != w.sum || rg.Graph.Checksum() != w.sum {
				t.Fatalf("%s: %q recovered at v%d record %016x graph %016x, want v%d %016x", label,
					rg.Record.Name, rg.Record.Version, rg.Record.Checksum, rg.Graph.Checksum(), w.version, w.sum)
			}
			if (rg.GT != nil) != w.gt || rg.Record.HasGT != w.gt {
				t.Fatalf("%s: %q ground truth present = %v, want %v", label, rg.Record.Name, rg.GT != nil, w.gt)
			}
			if w.gt && !reflect.DeepEqual(rg.GT.Pairs, gt.Pairs) {
				t.Fatalf("%s: %q ground truth %v, want %v", label, rg.Record.Name, rg.GT.Pairs, gt.Pairs)
			}
		}
	}

	l, r, err := Open(Config{Dir: dir, CompactEvery: -1})
	if err != nil {
		t.Fatalf("open a data dir in the older layout: %v", err)
	}
	check("first open", r)
	if r.JournalRecords != segRecords {
		t.Fatalf("replayed %d journal records, want %d (a kind-3 frame ended replay early)", r.JournalRecords, segRecords)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, r2, err := Open(Config{Dir: dir, CompactEvery: -1})
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer l2.Close()
	check("after compaction", r2)
	if r2.JournalRecords != 0 {
		t.Fatalf("replayed %d journal records after the closing compaction, want 0", r2.JournalRecords)
	}
	for _, k := range repKeys {
		if _, err := os.Stat(filepath.Join(dir, "reps", fmt.Sprintf("%016x%016x.reps", k[0], k[1]))); err != nil {
			t.Fatalf("an older version's rep file is gone after compaction: %v", err)
		}
	}
}
