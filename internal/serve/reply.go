package serve

import (
	"math"
	"strconv"
	"unicode/utf8"

	"github.com/ccer-go/ccer/internal/core"
	"github.com/ccer-go/ccer/internal/eval"
)

// matchReply is the body of a POST /v1/match reply. appendTo renders it
// byte for byte as json.Encoder with SetIndent("", "  ") renders the
// equivalent struct (the reference FuzzMatchReply compares against),
// without reflection or a second indenting pass.
type matchReply struct {
	graph     string
	version   int64
	threshold float64
	seed      int64
	results   []matchOutcome
	// metrics holds one entry per result; nil (no "metrics" objects)
	// when the graph has no ground truth.
	metrics []eval.Metrics
}

// The fixed text around one rendered pair, at the depth the pairs of a
// match reply sit.
const (
	pairOpen  = "\n        {\n          \"u\": "
	pairV     = ",\n          \"v\": "
	pairW     = ",\n          \"w\": "
	pairClose = "\n        }"
	pairsEnd  = "\n      ]"
)

// Upper bounds for sizing a reply buffer once: an int32 renders in at
// most 11 bytes, an int64 in 20, a float64 in 25
// (-0.0000012345678901234567), and an escaped string at most six bytes
// per input byte (\u00XX). frameLen covers the envelope's fixed text
// and numbers (about 150 bytes), or one result's with its metrics
// (about 240), at least twice over.
const (
	maxPairLen  = len(","+pairOpen+pairV+pairW+pairClose) + 2*11 + 25
	maxPairsLen = len("[" + pairsEnd)
	frameLen    = 512
)

// maxLen bounds len(r.appendTo(nil)).
func (r *matchReply) maxLen() int {
	n := frameLen + 6*len(r.graph)
	for _, o := range r.results {
		n += frameLen + 6*len(o.Algorithm)
		if o.Rendered != nil {
			n += len(o.Rendered)
		} else {
			n += maxPairsLen + maxPairLen*len(o.Pairs)
		}
	}
	return n
}

// appendTo appends the rendered reply to b. Every float in it must be
// finite; graph.Builder rejects non-finite weights, and metrics are
// ratios of counts.
func (r *matchReply) appendTo(b []byte) []byte {
	b = append(b, "{\n  \"graph\": "...)
	b = appendString(b, r.graph)
	b = append(b, ",\n  \"version\": "...)
	b = strconv.AppendInt(b, r.version, 10)
	b = append(b, ",\n  \"threshold\": "...)
	b = appendFloat(b, r.threshold)
	b = append(b, ",\n  \"seed\": "...)
	b = strconv.AppendInt(b, r.seed, 10)
	b = append(b, ",\n  \"results\": ["...)
	for i, o := range r.results {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    {\n      \"algorithm\": "...)
		b = appendString(b, o.Algorithm)
		b = append(b, ",\n      \"cached\": "...)
		b = strconv.AppendBool(b, o.Cached)
		b = append(b, ",\n      \"pairs\": "...)
		if o.Rendered != nil {
			b = append(b, o.Rendered...)
		} else {
			b = appendPairs(b, o.Pairs)
		}
		if r.metrics != nil {
			m := r.metrics[i]
			b = append(b, ",\n      \"metrics\": {\n        \"precision\": "...)
			b = appendFloat(b, m.Precision)
			b = append(b, ",\n        \"recall\": "...)
			b = appendFloat(b, m.Recall)
			b = append(b, ",\n        \"f1\": "...)
			b = appendFloat(b, m.F1)
			b = append(b, "\n      }"...)
		}
		b = append(b, "\n    }"...)
	}
	if len(r.results) > 0 {
		b = append(b, "\n  "...)
	}
	return append(b, "]\n}\n"...)
}

// appendPairs appends the "pairs" array of one reply result.
func appendPairs(b []byte, pairs []core.Pair) []byte {
	if len(pairs) == 0 {
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for i, p := range pairs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, pairOpen...)
		b = strconv.AppendInt(b, int64(p.U), 10)
		b = append(b, pairV...)
		b = strconv.AppendInt(b, int64(p.V), 10)
		b = append(b, pairW...)
		b = appendFloat(b, p.W)
		b = append(b, pairClose...)
	}
	return append(b, pairsEnd...)
}

// appendFloat appends a finite f in encoding/json's format: the shortest
// 'f' rendering, or 'e' with a negative exponent's leading zero trimmed
// (1e-7, not 1e-07) when |f| < 1e-6 or |f| >= 1e21.
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s as a JSON string the way encoding/json does
// with HTML escaping on, json.Encoder's default: <, > and & become
// \u003c, \u003e and \u0026, other control bytes \u00XX unless they
// have a short escape, invalid UTF-8 \ufffd, and U+2028 and U+2029 are
// escaped too.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
