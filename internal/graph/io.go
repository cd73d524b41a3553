package graph

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"strings"
)

// WriteEdgeList serializes the graph in a plain text format:
//
//	n1 n2
//	u v w
//	...
//
// one edge per line, weights with full float64 round-trip precision
// (strconv's shortest 'g' form).
func (g *Bipartite) WriteEdgeList(w io.Writer) error {
	return g.encodeEdgeList(func(chunk []byte) error {
		_, err := w.Write(chunk)
		return err
	})
}

// Checksum fingerprints the graph content as the FNV-1a hash of its
// edge-list serialization. Two graphs with the same side sizes and the
// same edge set (weights at full float64 precision) have the same
// checksum. The erserve graph store uses it to tag versioned entries.
func (g *Bipartite) Checksum() uint64 {
	h := fnv.New64a()
	_ = g.encodeEdgeList(func(chunk []byte) error {
		h.Write(chunk) // writes to a hasher cannot fail
		return nil
	})
	return h.Sum64()
}

// edgeListChunk is the size of the encoder's buffer, and maxEdgeLine
// bounds one encoded line: two int32 ids of up to 11 bytes, a weight of
// up to 24 ("-2.2250738585072014e-308"), two spaces and a newline.
const (
	edgeListChunk = 32 << 10
	maxEdgeLine   = 64
)

// encodeEdgeList produces WriteEdgeList's bytes with strconv appends
// into one reused buffer, passing each chunk of whole lines to emit; a
// chunk is valid only until emit returns. It walks the rows in (U,V)
// order and stops at emit's first error.
func (g *Bipartite) encodeEdgeList(emit func(chunk []byte) error) error {
	b := make([]byte, 0, edgeListChunk)
	b = strconv.AppendInt(b, int64(g.n1), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(g.n2), 10)
	b = append(b, '\n')
	err := g.rowsUV(func(row []Edge) error {
		for _, e := range row {
			if len(b) > edgeListChunk-maxEdgeLine {
				if err := emit(b); err != nil {
					return err
				}
				b = b[:0]
			}
			b = strconv.AppendInt(b, int64(e.U), 10)
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(e.V), 10)
			b = append(b, ' ')
			b = strconv.AppendFloat(b, e.W, 'g', -1, 64)
			b = append(b, '\n')
		}
		return nil
	})
	if err != nil {
		return err
	}
	return emit(b)
}

// ReadEdgeList parses the format written by WriteEdgeList.
func ReadEdgeList(r io.Reader) (*Bipartite, error) { return ReadEdgeListMax(r, 0) }

// ReadEdgeListMax is ReadEdgeList with a cap on the declared node
// counts: a header whose side sizes sum beyond maxNodes is rejected
// before any allocation. maxNodes <= 0 means no cap. Callers parsing
// untrusted input use it so a few header bytes cannot demand gigabytes
// of adjacency arrays.
func ReadEdgeListMax(r io.Reader, maxNodes int) (*Bipartite, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("graph: empty edge list input")
	}
	n1, n2, err := parseHeader(sc.Text())
	if err != nil {
		return nil, err
	}
	// Per-side comparisons avoid n1+n2 overflowing on hostile headers.
	if maxNodes > 0 && (n1 > maxNodes || n2 > maxNodes || n1+n2 > maxNodes) {
		return nil, fmt.Errorf("graph: header declares %d+%d nodes, above the cap of %d", n1, n2, maxNodes)
	}
	b := NewBuilder(n1, n2)
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return nil, fmt.Errorf("graph: line %d: want 'u v w', got %q", line, text)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", line, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", line, err)
		}
		w, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", line, err)
		}
		b.Add(NodeID(u), NodeID(v), w)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build()
}

// parseHeader reads the "n1 n2" line: exactly two integer fields, so
// trailing text is an error rather than ignored.
func parseHeader(line string) (n1, n2 int, err error) {
	f := strings.Fields(line)
	if len(f) != 2 {
		return 0, 0, fmt.Errorf("graph: bad header %q: want 'n1 n2'", line)
	}
	if n1, err = strconv.Atoi(f[0]); err == nil {
		n2, err = strconv.Atoi(f[1])
	}
	if err != nil {
		return 0, 0, fmt.Errorf("graph: bad header %q: %w", line, err)
	}
	return n1, n2, nil
}
