package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"github.com/ccer-go/ccer/internal/repcache"
)

// Journal wire format. Each record is one frame:
//
//	[u32 payload length][u32 CRC-32C of payload][payload]
//
// little-endian, fsync'd after every append. The decoder accepts a
// stream of whole frames and stops cleanly at the first frame that is
// truncated, overlong, or fails its CRC — the torn tail a crash
// mid-append leaves behind. Nothing after the first invalid frame is
// ever replayed, so a record that never finished committing cannot be
// resurrected by the bytes that happen to follow it.

// maxFrame bounds a payload so a corrupted length field cannot demand
// an arbitrary allocation. Journal payloads are metadata (names and
// fixed-width fields); the large blobs live in content-addressed files.
const maxFrame = 1 << 24

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errTorn reports the end of the decodable prefix of a journal segment.
var errTorn = errors.New("durable: torn or invalid journal frame")

// appendFrame writes one framed payload to w.
func appendFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("durable: journal payload of %d bytes exceeds frame cap", len(payload))
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// frameReader decodes framed payloads from an in-memory segment image.
type frameReader struct {
	data []byte
	off  int
}

// next returns the next whole, CRC-valid payload, io.EOF at a clean end
// of input, or errTorn at a truncated/corrupt frame.
func (r *frameReader) next() ([]byte, error) {
	if r.off == len(r.data) {
		return nil, io.EOF
	}
	if len(r.data)-r.off < 8 {
		return nil, errTorn
	}
	n := int(binary.LittleEndian.Uint32(r.data[r.off : r.off+4]))
	sum := binary.LittleEndian.Uint32(r.data[r.off+4 : r.off+8])
	if n > maxFrame || len(r.data)-r.off-8 < n {
		return nil, errTorn
	}
	payload := r.data[r.off+8 : r.off+8+n]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, errTorn
	}
	r.off += 8 + n
	return payload, nil
}

// Record kinds.
const (
	recPut    = byte(1) // a graph became (or replaced) the value of a name
	recDelete = byte(2) // a name was removed
	// recLegacyRep marked a representation-cache entry warm in journals
	// that older versions wrote (its payload is the entry's 128-bit
	// key). Nothing writes it now; replay decodes it so the records
	// framed after it are not dropped as a torn tail, and applies it as
	// a no-op.
	recLegacyRep = byte(3)
)

// GraphRecord is the durable metadata of one committed graph: everything
// a serve.GraphEntry carries except the graph and ground truth
// themselves, which live in content-addressed files named by Checksum
// and GTRef.
type GraphRecord struct {
	Name     string
	Version  int64
	Checksum uint64
	Source   string
	Dataset  string
	Seed     int64
	Scale    float64
	Created  time.Time
	// GTRef is the content key of the ground-truth file, zero when the
	// graph has none (uploads).
	GTRef repcache.Key
	// HasGT distinguishes "no ground truth" from a zero key.
	HasGT bool
}

// record is one decoded journal record.
type record struct {
	kind  byte
	graph GraphRecord // recPut
	name  string      // recDelete
}

// byteWriter builds a record payload.
type byteWriter struct{ b []byte }

func (w *byteWriter) u8(v byte) { w.b = append(w.b, v) }

func (w *byteWriter) u64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	w.b = append(w.b, buf[:]...)
}

func (w *byteWriter) str(s string) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(len(s)))
	w.b = append(w.b, buf[:]...)
	w.b = append(w.b, s...)
}

// byteReader parses a record payload with bounds checks; any overrun
// marks the record invalid instead of panicking.
type byteReader struct {
	b   []byte
	off int
	bad bool
}

func (r *byteReader) u8() byte {
	if r.bad || len(r.b)-r.off < 1 {
		r.bad = true
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *byteReader) u64() uint64 {
	if r.bad || len(r.b)-r.off < 8 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off : r.off+8])
	r.off += 8
	return v
}

func (r *byteReader) str() string {
	if r.bad || len(r.b)-r.off < 4 {
		r.bad = true
		return ""
	}
	n := int(binary.LittleEndian.Uint32(r.b[r.off : r.off+4]))
	r.off += 4
	if n < 0 || len(r.b)-r.off < n {
		r.bad = true
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// done reports a fully-consumed, well-formed payload.
func (r *byteReader) done() bool { return !r.bad && r.off == len(r.b) }

func encodeRecord(rec record) []byte {
	var w byteWriter
	w.u8(rec.kind)
	switch rec.kind {
	case recPut:
		g := rec.graph
		w.u64(uint64(g.Version))
		w.u64(g.Checksum)
		w.u64(uint64(g.Seed))
		w.u64(math.Float64bits(g.Scale))
		w.u64(uint64(g.Created.UnixNano()))
		if g.HasGT {
			w.u8(1)
			w.u64(g.GTRef.Hi)
			w.u64(g.GTRef.Lo)
		} else {
			w.u8(0)
		}
		w.str(g.Name)
		w.str(g.Source)
		w.str(g.Dataset)
	case recDelete:
		w.str(rec.name)
	}
	return w.b
}

// decodeRecord parses a payload. Unknown kinds and malformed payloads
// return an error; the caller treats the frame as invalid and stops.
func decodeRecord(payload []byte) (record, error) {
	r := byteReader{b: payload}
	var rec record
	rec.kind = r.u8()
	switch rec.kind {
	case recPut:
		g := &rec.graph
		g.Version = int64(r.u64())
		g.Checksum = r.u64()
		g.Seed = int64(r.u64())
		g.Scale = math.Float64frombits(r.u64())
		g.Created = time.Unix(0, int64(r.u64()))
		if r.u8() != 0 {
			g.HasGT = true
			g.GTRef.Hi = r.u64()
			g.GTRef.Lo = r.u64()
		}
		g.Name = r.str()
		g.Source = r.str()
		g.Dataset = r.str()
		if g.Name == "" {
			r.bad = true
		}
		if math.IsNaN(g.Scale) || math.IsInf(g.Scale, 0) {
			r.bad = true
		}
	case recDelete:
		rec.name = r.str()
		if rec.name == "" {
			r.bad = true
		}
	case recLegacyRep:
		r.u64()
		r.u64()
	default:
		return record{}, fmt.Errorf("durable: unknown record kind %d", rec.kind)
	}
	if !r.done() {
		return record{}, fmt.Errorf("durable: malformed record payload (kind %d)", rec.kind)
	}
	return rec, nil
}

// replayRecords decodes the valid prefix of one journal segment image,
// returning the records before the first invalid frame and whether a
// torn/invalid tail was discarded.
func replayRecords(data []byte) (recs []record, torn bool) {
	r := frameReader{data: data}
	for {
		payload, err := r.next()
		if err == io.EOF {
			return recs, false
		}
		if err != nil {
			return recs, true
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return recs, true
		}
		recs = append(recs, rec)
	}
}
