package simgraph

import (
	"fmt"
	"math"
	"testing"

	"github.com/ccer-go/ccer/internal/dataset"
	"github.com/ccer-go/ccer/internal/embed"
	"github.com/ccer-go/ccer/internal/graph"
	"github.com/ccer-go/ccer/internal/ngraph"
	"github.com/ccer-go/ccer/internal/strsim"
	"github.com/ccer-go/ccer/internal/vector"
)

// Golden equivalence: the row-parallel, candidate-enumerating,
// representation-caching fast path must emit graphs byte-identical
// (graph.Checksum over the full edge list at float64 precision) to the
// seed pipeline shape: dense O(n1×n2) double loops scoring every pair,
// with no candidate filter, no shared tokenization and no caches. This
// proves that candidate enumeration misses no positive pair, that the
// caches and shared tokenization are neutral, and that the slot-ordered
// assembly is scheduling-independent.
//
// The dense loops read the per-pair kernels; each is pinned bit for bit
// one level down by its own package's tests, against references kept
// there:
//
//   - SB-SYN, the strsim measures: strsim's profile_test.go holds every
//     token/q-gram measure to verbatim copies of the old map-based code,
//     and the char *Seq funcs are the moved seed bodies.
//   - SA-SYN bags, vector's Space.AllSims: vector's
//     TestAllSimsConsistent, against Space.Sim, over this test's task.
//   - SA-SYN n-gram graphs, ngraph.AllSims: ngraph's
//     TestAllSimsConsistent, against Containment, Value,
//     NormalizedValue and Overall, over this test's task. (The seed
//     summed weight ratios in map-iteration order, nondeterministic in
//     the last ulp, so the sorted-edge kernel fixes a canonical order.)
//   - SB-SEM and SA-SEM, embed.CosineEuclidean: embed's
//     TestCosineEuclideanFused, against CosineSim and EuclideanSim,
//     over this test's texts; and relaxedWMS below, to which
//     FuzzRelaxedWMS holds the row kernel's distance tables.

// denseGraphs scores every (i, j) pair with sims, which returns one
// score per name (nil to skip the pair), and appends one normalized
// graph per name, built from the positive scores.
func denseGraphs(out []SimGraph, ds string, family Family, prefix string, names []string, n1, n2 int, sims func(i, j int) []float64) []SimGraph {
	builders := make([]*graph.Builder, len(names))
	for k := range builders {
		builders[k] = graph.NewBuilder(n1, n2)
	}
	for i := 0; i < n1; i++ {
		for j := 0; j < n2; j++ {
			for k, sim := range sims(i, j) {
				if sim > 0 {
					builders[k].Add(int32(i), int32(j), sim)
				}
			}
		}
	}
	for k, name := range names {
		g, err := builders[k].Build()
		if err != nil {
			panic(fmt.Sprintf("golden: %v", err))
		}
		out = append(out, SimGraph{Dataset: ds, Family: family, Name: prefix + name, G: g.NormalizeMinMax()})
	}
	return out
}

func slowSchemaBased(task *dataset.Task, keyAttrs []string) []SimGraph {
	charFuncs := strsim.CharMeasures()
	tokenFuncs := map[string]strsim.TokenFunc{
		"Cosine":             strsim.CosineTokens,
		"BlockDistance":      strsim.BlockDistance,
		"Dice":               strsim.Dice,
		"SimonWhite":         strsim.SimonWhite,
		"OverlapCoefficient": strsim.OverlapCoefficient,
		"Euclidean":          strsim.EuclideanTokens,
		"Jaccard":            strsim.Jaccard,
		"GeneralizedJaccard": strsim.GeneralizedJaccard,
		"MongeElkan":         strsim.MongeElkan,
	}
	var out []SimGraph
	for _, attr := range keyAttrs {
		texts1 := task.V1.AttrTexts(attr)
		texts2 := task.V2.AttrTexts(attr)
		tokens1 := tokenizeAll(texts1)
		tokens2 := tokenizeAll(texts2)
		out = denseGraphs(out, task.Name, SBSyn, attr+"/", sbMeasureNames, len(texts1), len(texts2), func(i, j int) []float64 {
			if texts1[i] == "" || texts2[j] == "" {
				return nil
			}
			sims := make([]float64, len(sbMeasureNames))
			for k, name := range sbMeasureNames {
				if k < numChar {
					sims[k] = charFuncs[name](texts1[i], texts2[j])
				} else {
					sims[k] = tokenFuncs[name](tokens1[i], tokens2[j])
				}
			}
			return sims
		})
	}
	return out
}

func slowSchemaAgnostic(task *dataset.Task) []SimGraph {
	var out []SimGraph
	texts1 := task.V1.Texts()
	texts2 := task.V2.Texts()
	n1, n2 := len(texts1), len(texts2)
	var spaces *vector.SpaceCache // nil: every Space built afresh
	for _, mode := range vector.Modes() {
		space := spaces.Get(mode, texts1, texts2, nil, nil)
		out = denseGraphs(out, task.Name, SASyn, mode.String()+"/", vector.Measures(), n1, n2, func(i, j int) []float64 {
			sims := space.AllSims(i, j)
			return sims[:]
		})
		vocab := ngraph.NewVocab()
		graphs1 := make([]*ngraph.Graph, n1)
		for i, p := range task.V1.Profiles {
			graphs1[i] = ngraph.FromEntity(vocab, mode, p.Values())
		}
		graphs2 := make([]*ngraph.Graph, n2)
		for j, p := range task.V2.Profiles {
			graphs2[j] = ngraph.FromEntity(vocab, mode, p.Values())
		}
		out = denseGraphs(out, task.Name, SASyn, mode.String()+"g/", ngraph.Measures(), n1, n2, func(i, j int) []float64 {
			sims := ngraph.AllSims(graphs1[i], graphs2[j])
			return sims[:]
		})
	}
	return out
}

// slowSemantic mirrors the seed semantic family: uncached models, each
// entity's embedding and token vectors computed from its own text,
// token vectors truncated for the relaxed WMS.
func slowSemantic(task *dataset.Task, keyAttrs []string, opts Options, family Family) []SimGraph {
	type scope struct {
		prefix         string
		texts1, texts2 []string
	}
	var scopes []scope
	if family == SBSem {
		for _, attr := range keyAttrs {
			scopes = append(scopes, scope{attr + "/",
				task.V1.AttrTexts(attr), task.V2.AttrTexts(attr)})
		}
	} else {
		scopes = append(scopes, scope{"", task.V1.Texts(), task.V2.Texts()})
	}
	var out []SimGraph
	for _, sc := range scopes {
		for _, model := range []embed.Model{embed.FastTextLike{}, embed.ContextualLike{}} {
			out = slowSemanticGraphs(out, task.Name, family, sc.prefix+model.Name()+"/", model, sc.texts1, sc.texts2, opts)
		}
	}
	return out
}

func slowSemanticGraphs(out []SimGraph, ds string, family Family, prefix string, model embed.Model, texts1, texts2 []string, opts Options) []SimGraph {
	type rep struct {
		emb []float64
		tv  [][]float64
		tw  []float64
	}
	reps := func(texts []string) []rep {
		out := make([]rep, len(texts))
		for i, t := range texts {
			v, w := model.TokenVectors(t)
			out[i].emb = embed.EmbedTokens(model.Dim(), v, w)
			if len(v) > opts.maxWMDTokens() {
				v, w = v[:opts.maxWMDTokens()], w[:opts.maxWMDTokens()]
			}
			out[i].tv, out[i].tw = v, w
		}
		return out
	}
	reps1, reps2 := reps(texts1), reps(texts2)
	return denseGraphs(out, ds, family, prefix, embed.Measures(), len(texts1), len(texts2), func(i, j int) []float64 {
		if texts1[i] == "" || texts2[j] == "" {
			return nil
		}
		a, b := reps1[i], reps2[j]
		cos, euc := embed.CosineEuclidean(a.emb, b.emb, embed.NormSq(a.emb), embed.NormSq(b.emb))
		return []float64{cos, euc, relaxedWMS(a.tv, a.tw, b.tv, b.tw)}
	})
}

// relaxedWMS returns 1/(1+rwmd), where rwmd is the relaxed Word Mover's
// distance over pre-computed token vectors: the larger of the two
// directional greedy transport costs (each token's mass moves to its
// nearest counterpart), a standard lower bound of the exact WMD that
// keeps its ordering behaviour. It is the reference the row kernel's
// distance tables (tokenMatrix.distances and wms) must equal bit for
// bit.
func relaxedWMS(va [][]float64, wa []float64, vb [][]float64, wb []float64) float64 {
	if len(va) == 0 || len(vb) == 0 {
		return 0
	}
	d := directional(va, wa, vb)
	if d2 := directional(vb, wb, va); d2 > d {
		d = d2
	}
	return 1 / (1 + d)
}

func directional(from [][]float64, w []float64, to [][]float64) float64 {
	total := 0.0
	for i, v := range from {
		best := -1.0
		for _, u := range to {
			s := 0.0
			for k := range v {
				dd := v[k] - u[k]
				s += dd * dd
			}
			if best < 0 || s < best {
				best = s
			}
		}
		if best > 0 {
			total += w[i] * math.Sqrt(best)
		}
	}
	return total
}

// slowGenerate is the seed Generate: all four families, dense loops,
// per-pair recomputation, no cleaning filter.
func slowGenerate(task *dataset.Task, keyAttrs []string, opts Options) []SimGraph {
	var out []SimGraph
	for _, f := range opts.families() {
		switch f {
		case SBSyn:
			out = append(out, slowSchemaBased(task, keyAttrs)...)
		case SASyn:
			out = append(out, slowSchemaAgnostic(task)...)
		case SBSem:
			out = append(out, slowSemantic(task, keyAttrs, opts, SBSem)...)
		case SASem:
			out = append(out, slowSemantic(task, nil, opts, SASem)...)
		}
	}
	return out
}

func TestGoldenChecksumEquivalence(t *testing.T) {
	task := testTask(t)
	opts := Options{KeepNoMatchGraphs: true}
	fast := Generate(task, []string{"name"}, opts)
	slow := slowGenerate(task, []string{"name"}, opts)
	if len(fast) != len(slow) {
		t.Fatalf("fast path emitted %d graphs, seed path %d", len(fast), len(slow))
	}
	byFamily := map[Family]int{}
	for k := range fast {
		f, s := fast[k], slow[k]
		if f.Family != s.Family || f.Name != s.Name || f.Dataset != s.Dataset {
			t.Fatalf("graph %d is %s|%s, seed path has %s|%s", k, f.Family, f.Name, s.Family, s.Name)
		}
		if f.G.Checksum() != s.G.Checksum() {
			t.Fatalf("%s/%s: fast-path checksum %016x != seed checksum %016x",
				f.Family, f.Name, f.G.Checksum(), s.G.Checksum())
		}
		byFamily[f.Family]++
	}
	for _, fam := range Families() {
		if byFamily[fam] == 0 {
			t.Fatalf("family %s missing from golden comparison", fam)
		}
	}
}
