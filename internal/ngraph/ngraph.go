// Package ngraph implements the paper's schema-agnostic n-gram graph
// models (Appendix B.2.2): JInsect-style character and token n-gram
// graphs, where nodes are n-grams, undirected edges connect n-grams
// co-occurring within a window of size n, and edge weights record the
// co-occurrence frequency — so, unlike bag models, the order of n-grams is
// preserved.
//
// Per-value graphs are merged into one "entity graph" with the update
// operator (a running average of edge weights), and graphs are compared
// with the containment, value, normalized value and overall similarities
// of Giannakopoulos et al.
//
// Edges are stored as parallel key/weight slices sorted by edge key, so
// every comparison is an allocation-free merge join with a canonical
// (deterministic) summation order — the earlier map representation both
// hashed per probe and summed weight ratios in random iteration order.
package ngraph

import (
	"slices"

	"github.com/ccer-go/ccer/internal/strsim"
	"github.com/ccer-go/ccer/internal/vector"
)

// Graph is an n-gram graph: an undirected weighted graph over gram ids.
// Edges are keyed by the ordered gram-id pair and held sorted by key.
type Graph struct {
	keys []uint64
	ws   []float64
}

// NumEdges returns the size |G| of the graph.
func (g *Graph) NumEdges() int {
	if g == nil {
		return 0
	}
	return len(g.keys)
}

func edgeKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// Vocab interns grams to dense ids shared by a set of graphs. Grams
// reach it either as strings (ID) or — on FromEntity's allocation-free
// fast paths — as rune windows and token-id tuples; the key equivalences
// coincide with string equality of the gram strings, so ids are assigned
// in the same first-occurrence order either way. A single Vocab serves
// one representation mode (as the generation pipeline uses it); mixing
// the string path and a fast path for the same gram is not supported.
type Vocab struct {
	ids   map[string]int32
	char  map[[4]rune]int32 // char n-gram windows, n <= 4, noRune-padded
	tokID map[string]int32  // token -> token id for tuple keys
	tok   map[[3]int32]int32
	size  int
}

// noRune pads short gram-window keys; it never occurs in decoded text.
const noRune rune = -1

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab { return &Vocab{} }

// ID interns the gram and returns its id.
func (v *Vocab) ID(gram string) int32 {
	if v.ids == nil {
		v.ids = make(map[string]int32)
	}
	id, ok := v.ids[gram]
	if !ok {
		id = int32(v.size)
		v.ids[gram] = id
		v.size++
	}
	return id
}

func (v *Vocab) charID(key [4]rune) int32 {
	if v.char == nil {
		v.char = make(map[[4]rune]int32)
	}
	id, ok := v.char[key]
	if !ok {
		id = int32(v.size)
		v.char[key] = id
		v.size++
	}
	return id
}

func (v *Vocab) tokenID(tok string) int32 {
	if v.tokID == nil {
		v.tokID = make(map[string]int32)
	}
	id, ok := v.tokID[tok]
	if !ok {
		id = int32(len(v.tokID))
		v.tokID[tok] = id
	}
	return id
}

func (v *Vocab) tupleID(key [3]int32) int32 {
	if v.tok == nil {
		v.tok = make(map[[3]int32]int32)
	}
	id, ok := v.tok[key]
	if !ok {
		id = int32(v.size)
		v.tok[key] = id
		v.size++
	}
	return id
}

// Size returns the number of interned grams.
func (v *Vocab) Size() int { return v.size }

// fromKeys finalizes a graph from an edge-key sequence with possibly
// repeated keys; each occurrence counts one co-occurrence, so the
// weight of an edge is its run length after sorting.
func fromKeys(keys []uint64) *Graph {
	if len(keys) == 0 {
		return &Graph{}
	}
	slices.Sort(keys)
	g := &Graph{keys: keys[:0], ws: make([]float64, 0, len(keys))}
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j] == keys[i] {
			j++
		}
		k := keys[i]
		g.keys = append(g.keys, k)
		g.ws = append(g.ws, float64(j-i))
		i = j
	}
	return g
}

// valueScratch carries the reusable per-entity buffers of the FromEntity
// hot path.
type valueScratch struct {
	ids  []int32
	tids []int32
	rs   []rune
	keys []uint64
}

func (s *valueScratch) graph() *Graph {
	return fromKeys(append([]uint64(nil), s.keys...))
}

// fromValueScratch extracts the value's gram ids into scratch without
// allocating gram strings where the mode allows it (char n <= 4, token
// n <= 3 — all of Modes()), then the co-occurrence edge keys. The gram
// id assignment matches the string path exactly (see Vocab).
func fromValueScratch(vocab *Vocab, mode vector.Mode, value string, s *valueScratch) *valueScratch {
	s.ids = s.ids[:0]
	switch {
	case mode.Char && mode.N <= 4:
		s.rs = append(s.rs[:0], []rune(value)...)
		if len(s.rs) > 0 {
			key := [4]rune{noRune, noRune, noRune, noRune}
			if len(s.rs) <= mode.N {
				copy(key[:], s.rs)
				s.ids = append(s.ids, vocab.charID(key))
			} else {
				for i := 0; i+mode.N <= len(s.rs); i++ {
					copy(key[:], s.rs[i:i+mode.N])
					s.ids = append(s.ids, vocab.charID(key))
				}
			}
		}
	case !mode.Char && mode.N <= 3:
		toks := strsim.Tokenize(value)
		if len(toks) > 0 {
			s.tids = s.tids[:0]
			for _, tok := range toks {
				s.tids = append(s.tids, vocab.tokenID(tok))
			}
			key := [3]int32{-1, -1, -1}
			if len(s.tids) <= mode.N {
				copy(key[:], s.tids)
				s.ids = append(s.ids, vocab.tupleID(key))
			} else {
				for i := 0; i+mode.N <= len(s.tids); i++ {
					copy(key[:], s.tids[i:i+mode.N])
					s.ids = append(s.ids, vocab.tupleID(key))
				}
			}
		}
	default:
		var grams []string
		if mode.Char {
			grams = vector.CharNGrams(value, mode.N)
		} else {
			grams = vector.TokenNGrams(strsim.Tokenize(value), mode.N)
		}
		for _, gram := range grams {
			s.ids = append(s.ids, vocab.ID(gram))
		}
	}
	s.keys = s.keys[:0]
	for i := range s.ids {
		for d := 1; d <= mode.N && i+d < len(s.ids); d++ {
			if s.ids[i] == s.ids[i+d] {
				continue // no self loops
			}
			s.keys = append(s.keys, edgeKey(s.ids[i], s.ids[i+d]))
		}
	}
	return s
}

// Merge combines per-value graphs into a single entity graph using the
// update operator: the merged weight of an edge is the running average of
// its weights across the value graphs (treating absence as weight zero is
// deliberately not done — the operator averages over the graphs that
// contain the edge, following JInsect's incremental update with learning
// factor 1/i).
func Merge(graphs []*Graph) *Graph {
	live := graphs[:0:0]
	total := 0
	for _, g := range graphs {
		if g != nil && len(g.keys) > 0 {
			live = append(live, g)
			total += len(g.keys)
		}
	}
	if len(live) == 0 {
		return &Graph{}
	}
	if len(live) == 1 {
		return &Graph{keys: append([]uint64(nil), live[0].keys...),
			ws: append([]float64(nil), live[0].ws...)}
	}
	// Fold the (sorted) per-value graphs into a sorted accumulator in
	// graph order: each key carries its occurrence count, and a repeated
	// key updates the running average with the division sequence
	// w += (w_k - w)/k — exactly the fold the earlier sort-based merge
	// applied per key run, so the floats are bit-identical, without the
	// comparator sort over all triples.
	accK := append(make([]uint64, 0, total), live[0].keys...)
	accW := append(make([]float64, 0, total), live[0].ws...)
	accC := make([]int32, len(accK), total)
	for i := range accC {
		accC[i] = 1
	}
	nk := make([]uint64, 0, total)
	nw := make([]float64, 0, total)
	nc := make([]int32, 0, total)
	for _, g := range live[1:] {
		nk, nw, nc = nk[:0], nw[:0], nc[:0]
		i, j := 0, 0
		for i < len(accK) || j < len(g.keys) {
			switch {
			case j >= len(g.keys) || (i < len(accK) && accK[i] < g.keys[j]):
				nk = append(nk, accK[i])
				nw = append(nw, accW[i])
				nc = append(nc, accC[i])
				i++
			case i >= len(accK) || accK[i] > g.keys[j]:
				nk = append(nk, g.keys[j])
				nw = append(nw, g.ws[j])
				nc = append(nc, 1)
				j++
			default:
				c := accC[i] + 1
				nk = append(nk, accK[i])
				nw = append(nw, accW[i]+(g.ws[j]-accW[i])/float64(c))
				nc = append(nc, c)
				i++
				j++
			}
		}
		accK, nk = nk, accK
		accW, nw = nw, accW
		accC, nc = nc, accC
	}
	return &Graph{keys: accK, ws: accW}
}

// FromEntity builds the entity graph of a set of attribute values.
func FromEntity(vocab *Vocab, mode vector.Mode, values []string) *Graph {
	graphs := make([]*Graph, len(values))
	var scratch valueScratch
	for i, v := range values {
		graphs[i] = fromValueScratch(vocab, mode, v, &scratch).graph()
	}
	return Merge(graphs)
}

// common walks the sorted edge lists of both graphs in one merge join,
// returning the number of shared edges and the Σ min(w)/max(w) weight
// ratio over them. The ascending-key order makes the float summation
// canonical. Weights are strictly positive finite averages, so the
// branchy min/max selects the same operands math.Min/Max would (the
// NaN/±0 special cases cannot occur) and the ratio sum stays
// bit-identical while skipping the calls.
func common(a, b *Graph) (int, float64) {
	ak, bk := a.keys, b.keys
	aw, bw := a.ws, b.ws
	i, j, n := 0, 0, 0
	ratio := 0.0
	for i < len(ak) && j < len(bk) {
		switch {
		case ak[i] < bk[j]:
			i++
		case ak[i] > bk[j]:
			j++
		default:
			n++
			x, y := aw[i], bw[j]
			if x < y {
				ratio += x / y
			} else {
				ratio += y / x
			}
			i++
			j++
		}
	}
	return n, ratio
}

// Measure names for graph models (Appendix B, category 3).
const (
	MeasureContainment     = "Containment"
	MeasureValue           = "Value"
	MeasureNormalizedValue = "NormalizedValue"
	MeasureOverall         = "Overall"
)

// Measures returns the four graph-model measure names in a stable order.
func Measures() []string {
	return []string{
		MeasureContainment, MeasureValue, MeasureNormalizedValue, MeasureOverall,
	}
}

// AllSims computes the four graph measures of a and b in a single merge
// join over the sorted edge lists, returned in Measures() order:
//
//   - containment, the portion of common edges ignoring weights:
//     |Gi ∩ Gj| / min(|Gi|, |Gj|);
//   - value, containment with weights:
//     Σ_{e∈Gi∩Gj} min(w)/max(w) / max(|Gi|,|Gj|);
//   - normalized value, which divides by the smaller graph instead to
//     mitigate size imbalance: Σ_{e∈Gi∩Gj} min(w)/max(w) / min(|Gi|,|Gj|);
//   - overall, the average of the three.
//
// Two empty graphs score 1 on every measure, and an empty graph scores
// 0 against a non-empty one.
func AllSims(a, b *Graph) [4]float64 {
	if a.NumEdges() == 0 && b.NumEdges() == 0 {
		return [4]float64{1, 1, 1, 1}
	}
	if a.NumEdges() == 0 || b.NumEdges() == 0 {
		return [4]float64{}
	}
	n, ratio := common(a, b)
	small, large := a.NumEdges(), b.NumEdges()
	if small > large {
		small, large = large, small
	}
	cos := float64(n) / float64(small)
	vs := ratio / float64(large)
	ns := ratio / float64(small)
	return [4]float64{cos, vs, ns, (cos + vs + ns) / 3}
}

// GramIDs returns the sorted node ids of the graph's edges; used to build
// inverted indexes for candidate generation. The high halves of the
// sorted edge keys are already ascending, so only the low halves need a
// sort before the two deduplicated runs merge.
func (g *Graph) GramIDs() []int32 {
	if g.NumEdges() == 0 {
		return nil
	}
	his := make([]int32, 0, len(g.keys))
	los := make([]int32, 0, len(g.keys))
	for _, k := range g.keys {
		hi := int32(k >> 32)
		if len(his) == 0 || his[len(his)-1] != hi {
			his = append(his, hi)
		}
		los = append(los, int32(uint32(k)))
	}
	slices.Sort(los)
	lu := los[:1]
	for _, id := range los[1:] {
		if id != lu[len(lu)-1] {
			lu = append(lu, id)
		}
	}
	out := make([]int32, 0, len(his)+len(lu))
	i, j := 0, 0
	for i < len(his) || j < len(lu) {
		switch {
		case j >= len(lu) || (i < len(his) && his[i] < lu[j]):
			out = append(out, his[i])
			i++
		case i >= len(his) || his[i] > lu[j]:
			out = append(out, lu[j])
			j++
		default:
			out = append(out, his[i])
			i++
			j++
		}
	}
	return out
}
