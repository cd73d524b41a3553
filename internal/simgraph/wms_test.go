package simgraph

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/ccer-go/ccer/internal/embed"
)

// wmsInput decodes fuzz bytes into one left entity and one to three
// right entities of 0-6 token vectors each, at dimension 1-100. Bytes
// 0-2 give the dimension, the left token count and the number of right
// entities, then one byte per right entity its token count. Each vector
// starts with a header byte: 1 mod 4 reuses an earlier vector's slice
// (shared, and zero distance when the sides share it), 2 mod 4 copies an
// earlier vector's values, anything else decodes a fresh vector. A
// component byte is +0, -0, a positive or negative subnormal, or a
// multiple of 1/7 (full-mantissa values whose sums round). Each token
// weight is a multiple of 1/16, zero and negative included. Bytes are
// read cyclically, so any non-empty input decodes.
type wmsInput struct {
	dim    int
	va     [][]float64
	wa     []float64
	rights [][][]float64
	tw     [][]float64
}

func decodeWMSInput(data []byte) wmsInput {
	pos := 0
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		c := data[pos%len(data)]
		pos++
		return c
	}
	in := wmsInput{dim: 1 + int(next())%100}
	na := int(next()) % 7
	counts := make([]int, 1+int(next())%3)
	for j := range counts {
		counts[j] = int(next()) % 7
	}
	var pool [][]float64
	vectors := func(n int) ([][]float64, []float64) {
		vs := make([][]float64, n)
		for t := range vs {
			switch h := next(); {
			case len(pool) > 0 && h%4 == 1:
				vs[t] = pool[int(h>>2)%len(pool)]
			case len(pool) > 0 && h%4 == 2:
				vs[t] = append([]float64(nil), pool[int(h>>2)%len(pool)]...)
			default:
				v := make([]float64, in.dim)
				for k := range v {
					switch c := next(); c % 16 {
					case 0:
						v[k] = 0
					case 1:
						v[k] = math.Copysign(0, -1)
					case 2:
						v[k] = math.Float64frombits(uint64(c))
					case 3:
						v[k] = -math.Float64frombits(uint64(c))
					default:
						v[k] = float64(int8(c)) / 7
					}
				}
				vs[t] = v
			}
			pool = append(pool, vs[t])
		}
		ws := make([]float64, n)
		for t := range ws {
			ws[t] = float64(int8(next())) / 16
		}
		return vs, ws
	}
	in.va, in.wa = vectors(na)
	for _, n := range counts {
		vs, ws := vectors(n)
		in.rights = append(in.rights, vs)
		in.tw = append(in.tw, ws)
	}
	return in
}

// FuzzRelaxedWMS holds the row kernel's distance table and its per-pair
// reads (tokenMatrix.distances and wms) to relaxedWMS, the reference in
// golden_test.go, bit for bit.
func FuzzRelaxedWMS(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeWMSInput(data)
		mat := newTokenMatrix(in.rights, in.dim)
		// A NaN-filled scratch table shows any entry the fill skips.
		n := len(in.va) * mat.rows
		scratch := make([]float64, n+3)
		for k := range scratch {
			scratch[k] = math.NaN()
		}
		tab := mat.distances(in.va, scratch[:0])
		rows := mat.rows
		for ti, v := range in.va {
			for r := 0; r < rows; r++ {
				want := 0.0
				for k, u := range mat.data[r*in.dim : (r+1)*in.dim] {
					d := v[k] - u
					want += d * d
				}
				if got := tab[ti*rows+r]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("dim %d: table[%d][%d] = %v, plain sum %v", in.dim, ti, r, got, want)
				}
			}
		}
		colBest := make([]float64, mat.maxTok)
		for j, vb := range in.rights {
			want := relaxedWMS(in.va, in.wa, vb, in.tw[j])
			got := mat.wms(tab, in.wa, j, in.tw[j], colBest)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("dim %d, %d x %d tokens (right entity %d): table kernel %v (%#x), relaxedWMS %v (%#x)",
					in.dim, len(in.va), len(vb), j, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	})
}

// TestRelaxedWMSProperties: closer texts score higher, a text scores 1
// against itself and 0 against an empty text, and the similarity is
// symmetric and in (0,1] on token soup.
func TestRelaxedWMSProperties(t *testing.T) {
	for _, m := range []embed.Model{embed.FastTextLike{}, embed.ContextualLike{}} {
		wms := func(a, b string) float64 {
			va, wa := m.TokenVectors(a)
			vb, wb := m.TokenVectors(b)
			return relaxedWMS(va, wa, vb, wb)
		}
		if near, far := wms("green apple pie", "green apple tart"), wms("green apple pie", "quantum flux generator"); near <= far {
			t.Fatalf("%s: near %v <= far %v", m.Name(), near, far)
		}
		if self := wms("a b c", "a b c"); self != 1 {
			t.Fatalf("%s: self = %v, want 1", m.Name(), self)
		}
		if s := wms("", "something"); s != 0 {
			t.Fatalf("%s: against empty text = %v, want 0", m.Name(), s)
		}
		words := []string{"red", "apple", "pie", "york", "bank", "x9", "flux"}
		rng := rand.New(rand.NewSource(1))
		soup := func() string {
			parts := make([]string, rng.Intn(5)+1)
			for i := range parts {
				parts[i] = words[rng.Intn(len(words))]
			}
			return strings.Join(parts, " ")
		}
		for i := 0; i < 40; i++ {
			a, b := soup(), soup()
			if s := wms(a, b); s <= 0 || s > 1 || s != wms(b, a) {
				t.Fatalf("%s: wms(%q, %q) = %v, reversed %v", m.Name(), a, b, s, wms(b, a))
			}
		}
	}
}
