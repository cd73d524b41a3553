package durable

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/ccer-go/ccer/internal/repcache"
)

func frameOf(t testing.TB, rec record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := appendFrame(&buf, encodeRecord(rec)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func putRec(name string, version int64, checksum uint64) record {
	return record{kind: recPut, graph: GraphRecord{
		Name:     name,
		Version:  version,
		Checksum: checksum,
		Source:   "generate",
		Dataset:  "D2",
		Seed:     7,
		Scale:    0.02,
		Created:  time.Unix(0, 1234567890),
	}}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []record{
		putRec("a", 1, 0xdeadbeef),
		{kind: recPut, graph: GraphRecord{
			Name: "gt-bearing", Version: 9, Checksum: 42, Source: "generate",
			Created: time.Unix(0, 5), HasGT: true,
			GTRef: repcache.Key{Hi: 0x1122, Lo: 0x3344},
		}},
		{kind: recDelete, name: "a"},
	}
	for _, want := range recs {
		got, err := decodeRecord(encodeRecord(want))
		if err != nil {
			t.Fatalf("decode(encode(%+v)): %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":          {},
		"unknown kind":   {99},
		"empty put name": encodeRecord(putRec("", 1, 2)),
		"empty delete":   encodeRecord(record{kind: recDelete}),
		"truncated put":  encodeRecord(putRec("a", 1, 2))[:10],
		"trailing bytes": append(encodeRecord(record{kind: recDelete, name: "x"}), 0),
		"nan scale":      encodeRecord(record{kind: recPut, graph: GraphRecord{Name: "a", Scale: math.NaN()}}),
		"inf scale":      encodeRecord(record{kind: recPut, graph: GraphRecord{Name: "a", Scale: math.Inf(1)}}),
		"repwarm short":  legacyRepPayload(0, 0)[:9],
		"repwarm tail":   append(legacyRepPayload(0, 0), 1, 2, 3),
	}
	for name, payload := range cases {
		if _, err := decodeRecord(payload); err == nil {
			t.Errorf("%s: decodeRecord accepted %x", name, payload)
		}
	}
}

// TestReplayStopsAtTornTail pins the torn-tail contract on hand-built
// segment images: everything before the first invalid frame replays,
// nothing after it does — even when whole valid frames follow the tear.
func TestReplayStopsAtTornTail(t *testing.T) {
	a := frameOf(t, putRec("a", 1, 10))
	b := frameOf(t, putRec("b", 2, 20))
	c := frameOf(t, record{kind: recDelete, name: "a"})

	join := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	cases := []struct {
		name string
		data []byte
		want int
		torn bool
	}{
		{"empty", nil, 0, false},
		{"clean", join(a, b, c), 3, false},
		{"truncated header", join(a, b[:3]), 1, true},
		{"truncated payload", join(a, b[:len(b)-2]), 1, true},
		{"flipped payload bit", join(a, flip(b, len(b)-1), c), 1, true},
		{"flipped length field", join(flip(a, 0), b), 0, true},
		{"valid frame, bad record", join(a, frameOfRaw(t, []byte{77}), b), 1, true},
		{"garbage only", []byte("not a journal"), 0, true},
	}
	for _, tc := range cases {
		recs, torn := replayRecords(tc.data)
		if len(recs) != tc.want || torn != tc.torn {
			t.Errorf("%s: replay = %d records, torn=%v; want %d, torn=%v",
				tc.name, len(recs), torn, tc.want, tc.torn)
		}
	}
}

func flip(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x40
	return out
}

// frameOfRaw frames an arbitrary payload (even one that is not a valid
// record), for attacking the record decoder through a CRC-valid frame.
func frameOfRaw(t testing.TB, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := appendFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzJournalReplay feeds arbitrary bytes to the segment decoder and
// checks its safety contract: it never panics, it is deterministic, it
// stops dead at the first invalid frame (bytes after a tear can never
// resurrect a record), and on a clean image a subsequently appended
// record is replayed — i.e. the decoder finds exactly the committed
// prefix.
func FuzzJournalReplay(f *testing.F) {
	a := frameOf(f, putRec("a", 1, 10))
	b := frameOf(f, record{kind: recDelete, name: "a"})
	w := legacyRepFrame(f, 3, 4)
	f.Add([]byte{})
	f.Add(a)
	f.Add(append(append([]byte(nil), a...), b...))
	f.Add(append(append([]byte(nil), a...), w[:5]...))
	f.Add([]byte("garbage garbage garbage"))
	f.Add(frameOfRaw(f, []byte{99, 1, 2, 3}))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, torn := replayRecords(data)
		recs2, torn2 := replayRecords(data)
		if len(recs) != len(recs2) || torn != torn2 {
			t.Fatalf("nondeterministic replay: (%d,%v) vs (%d,%v)", len(recs), torn, len(recs2), torn2)
		}
		// Every replayed put or delete survives an encode/decode round
		// trip: only well-formed records come out of the decoder. (A
		// legacy kind-3 record has no encoding; it replays as a no-op.)
		for _, r := range recs {
			if r.kind == recLegacyRep {
				continue
			}
			if _, err := decodeRecord(encodeRecord(r)); err != nil {
				t.Fatalf("replayed record does not re-encode: %+v: %v", r, err)
			}
		}
		extra := frameOf(t, putRec("appended", 99, 999))
		extended, extTorn := replayRecords(append(append([]byte(nil), data...), extra...))
		if torn {
			// Uncommitted tail: appending a valid frame after the tear
			// must not resurrect anything.
			if len(extended) != len(recs) || !extTorn {
				t.Fatalf("bytes after a torn tail replayed: %d -> %d records", len(recs), len(extended))
			}
		} else {
			// Clean image: an appended commit is found, exactly once.
			if len(extended) != len(recs)+1 || extTorn {
				t.Fatalf("append to clean image: %d -> %d records (torn=%v)", len(recs), len(extended), extTorn)
			}
		}
	})
}

// TestReplayEquivalentToState is the satellite property test: folding a
// journal (generated from a random mutation sequence) over an empty
// state reproduces the reference in-memory state — live set, versions
// and deletion tombstones — via testing/quick over random operation
// sequences. Legacy kind-3 records interleaved with them change
// nothing.
func TestReplayEquivalentToState(t *testing.T) {
	type op struct {
		Kind uint8
		Name uint8 // small namespace so deletes and overwrites hit
		Ver  int64
		Sum  uint64
	}
	names := []string{"a", "b", "c", "d"}
	prop := func(ops []op) bool {
		// Reference state, maintained directly.
		live := map[string]GraphRecord{}
		var maxVer int64
		var image []byte

		var buf bytes.Buffer
		nextVer := int64(0)
		for _, o := range ops {
			name := names[int(o.Name)%len(names)]
			switch o.Kind % 3 {
			case 0: // put
				nextVer++
				r := putRec(name, nextVer, o.Sum)
				buf.Reset()
				if err := appendFrame(&buf, encodeRecord(r)); err != nil {
					t.Fatal(err)
				}
				image = append(image, buf.Bytes()...)
				live[name] = r.graph
				if nextVer > maxVer {
					maxVer = nextVer
				}
			case 1: // delete (tombstone; deleting absent names journals too)
				r := record{kind: recDelete, name: name}
				buf.Reset()
				if err := appendFrame(&buf, encodeRecord(r)); err != nil {
					t.Fatal(err)
				}
				image = append(image, buf.Bytes()...)
				delete(live, name)
			case 2: // a warm rep, as older versions journaled it
				image = append(image, legacyRepFrame(t, o.Sum, uint64(o.Ver))...)
			}
		}

		// Replay the image the way Open does.
		recs, torn := replayRecords(image)
		if torn || len(recs) != len(ops) {
			return false
		}
		l := &Log{live: map[string]GraphRecord{}}
		for _, r := range recs {
			l.applyLocked(r)
		}
		return l.nextVersion == maxVer && reflect.DeepEqual(l.live, live)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
