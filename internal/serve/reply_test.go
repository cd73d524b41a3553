package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"strconv"
	"testing"

	"github.com/ccer-go/ccer/internal/core"
	"github.com/ccer-go/ccer/internal/eval"
)

// The structs the match reply was rendered from with encoding/json
// before appendTo replaced them: the reference FuzzMatchReply holds
// appendTo to.
type pairJSON struct {
	U int32   `json:"u"`
	V int32   `json:"v"`
	W float64 `json:"w"`
}

type metricsJSON struct {
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
}

type algoResultJSON struct {
	Algorithm string       `json:"algorithm"`
	Cached    bool         `json:"cached"`
	Pairs     []pairJSON   `json:"pairs"`
	Metrics   *metricsJSON `json:"metrics,omitempty"`
}

type matchResponse struct {
	Graph     string           `json:"graph"`
	Version   int64            `json:"version"`
	Threshold float64          `json:"threshold"`
	Seed      int64            `json:"seed"`
	Results   []algoResultJSON `json:"results"`
}

// FuzzMatchReply renders arbitrary replies both ways and requires equal
// bytes, with every result's pairs formatted in place and again copied
// from their cached rendering, within the size maxLen promised. data is
// cut into 16-byte pairs (u, v, w bits) dealt round-robin over one to
// three results; results beyond the first take the algorithm name with
// their index appended and flip cached.
func FuzzMatchReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, graph, algorithm string, version int64, threshold float64, seed int64,
		results uint8, cached, withMetrics bool, precision, recall, f1 float64, data []byte) {
		var all []core.Pair
		for ; len(data) >= 16; data = data[16:] {
			all = append(all, core.Pair{
				U: int32(binary.LittleEndian.Uint32(data)),
				V: int32(binary.LittleEndian.Uint32(data[4:])),
				W: math.Float64frombits(binary.LittleEndian.Uint64(data[8:])),
			})
		}
		floats := []float64{threshold, precision, recall, f1}
		for _, p := range all {
			floats = append(floats, p.W)
		}
		for _, x := range floats {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Skip("match replies carry finite numbers only")
			}
		}

		n := 1 + int(results)%3
		reply := matchReply{graph: graph, version: version, threshold: threshold, seed: seed}
		want := matchResponse{Graph: graph, Version: version, Threshold: threshold, Seed: seed}
		if withMetrics {
			reply.metrics = make([]eval.Metrics, n)
		}
		for i := 0; i < n; i++ {
			o := matchOutcome{Algorithm: algorithm, Cached: cached != (i%2 == 1)}
			if i > 0 {
				o.Algorithm += strconv.Itoa(i)
			}
			res := algoResultJSON{Algorithm: o.Algorithm, Cached: o.Cached, Pairs: []pairJSON{}}
			for k := i; k < len(all); k += n {
				p := all[k]
				o.Pairs = append(o.Pairs, p)
				res.Pairs = append(res.Pairs, pairJSON{U: p.U, V: p.V, W: p.W})
			}
			if withMetrics {
				// Rotate the three values so results differ.
				m := [3]float64{precision, recall, f1}
				reply.metrics[i] = eval.Metrics{Precision: m[i], Recall: m[(i+1)%3], F1: m[(i+2)%3]}
				res.Metrics = &metricsJSON{Precision: m[i], Recall: m[(i+1)%3], F1: m[(i+2)%3]}
			}
			reply.results = append(reply.results, o)
			want.Results = append(want.Results, res)
		}

		var ref bytes.Buffer
		enc := json.NewEncoder(&ref)
		enc.SetIndent("", "  ")
		if err := enc.Encode(want); err != nil {
			t.Fatal(err)
		}
		check := func(how string) {
			got := reply.appendTo(nil)
			if !bytes.Equal(got, ref.Bytes()) {
				t.Fatalf("%s:\n got %q\nwant %q", how, got, ref.Bytes())
			}
			if bound := reply.maxLen(); len(got) > bound {
				t.Fatalf("%s: %d bytes, maxLen %d", how, len(got), bound)
			}
		}
		check("pairs formatted")
		for i := range reply.results {
			reply.results[i].Rendered = appendPairs(nil, reply.results[i].Pairs)
		}
		check("pairs copied from their rendering")
	})
}
