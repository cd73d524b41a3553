package simgraph

import (
	"fmt"
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
// seed pipeline shape — dense O(n1×n2) double loops recomputing every
// measure per pair through the string/Sim APIs. The reference below is
// the seed Generate ported verbatim minus the family-level goroutines
// (which never affected content).
//
// What this proves, precisely: candidate enumeration misses no
// positive pair, the single-merge-join AllSims/TokenSims kernels agree
// with the per-measure APIs, the per-entity caches are neutral, and
// the slot-ordered assembly is scheduling-independent. The measure
// KERNELS themselves are pinned to the deleted seed implementations
// one level down: internal/strsim's profile_test.go compares every
// token/q-gram measure bit-for-bit against verbatim copies of the old
// map-based code (the string API here routes through the same
// profiles, closing the chain), and the char *Seq funcs are the moved
// seed bodies. The one deliberate deviation is ngraph: the seed
// summed weight ratios in random map-iteration order (nondeterministic
// in the last ulp across processes), so the sorted-edge rewrite fixes
// a canonical order instead of reproducing an unreproducible one; both
// sides of this test share it.

func slowAppend(out []SimGraph, ds string, family Family, name string, b *graph.Builder) []SimGraph {
	g, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("golden: %v", err))
	}
	return append(out, SimGraph{Dataset: ds, Family: family, Name: name, G: g.NormalizeMinMax()})
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
	n1, n2 := task.V1.Len(), task.V2.Len()
	for _, attr := range keyAttrs {
		texts1 := task.V1.AttrTexts(attr)
		texts2 := task.V2.AttrTexts(attr)
		tokens1 := tokenizeAll(texts1)
		tokens2 := tokenizeAll(texts2)
		builders := make([]*graph.Builder, len(sbMeasureNames))
		for k := range builders {
			builders[k] = graph.NewBuilder(n1, n2)
		}
		for i := 0; i < n1; i++ {
			if texts1[i] == "" {
				continue
			}
			for j := 0; j < n2; j++ {
				if texts2[j] == "" {
					continue
				}
				for k, name := range sbMeasureNames {
					var sim float64
					if k < numChar {
						sim = charFuncs[name](texts1[i], texts2[j])
					} else {
						sim = tokenFuncs[name](tokens1[i], tokens2[j])
					}
					if sim > 0 {
						builders[k].Add(int32(i), int32(j), sim)
					}
				}
			}
		}
		for k, name := range sbMeasureNames {
			out = slowAppend(out, task.Name, SBSyn, attr+"/"+name, builders[k])
		}
	}
	return out
}

func slowSchemaAgnostic(task *dataset.Task) []SimGraph {
	var out []SimGraph
	texts1 := task.V1.Texts()
	texts2 := task.V2.Texts()
	n1, n2 := len(texts1), len(texts2)
	for _, mode := range vector.Modes() {
		// Bag models: every pair, every measure, through the Sim API.
		space := vector.NewSpace(mode, texts1, texts2)
		for _, name := range vector.Measures() {
			b := graph.NewBuilder(n1, n2)
			for i := 0; i < n1; i++ {
				for j := 0; j < n2; j++ {
					if sim := space.Sim(name, i, j); sim > 0 {
						b.Add(int32(i), int32(j), sim)
					}
				}
			}
			out = slowAppend(out, task.Name, SASyn, mode.String()+"/"+name, b)
		}
		// N-gram graph models: every pair, every measure, via ngraph.Sim.
		vocab := ngraph.NewVocab()
		graphs1 := make([]*ngraph.Graph, n1)
		for i, p := range task.V1.Profiles {
			graphs1[i] = ngraph.FromEntity(vocab, mode, p.Values())
		}
		graphs2 := make([]*ngraph.Graph, n2)
		for j, p := range task.V2.Profiles {
			graphs2[j] = ngraph.FromEntity(vocab, mode, p.Values())
		}
		for _, name := range ngraph.Measures() {
			b := graph.NewBuilder(n1, n2)
			for i := 0; i < n1; i++ {
				for j := 0; j < n2; j++ {
					if sim := ngraph.Sim(name, graphs1[i], graphs2[j]); sim > 0 {
						b.Add(int32(i), int32(j), sim)
					}
				}
			}
			out = slowAppend(out, task.Name, SASyn, mode.String()+"g/"+name, b)
		}
	}
	return out
}

// slowSemantic mirrors the seed semantic family: embeddings via
// model.Embed per entity, token vectors truncated for the relaxed WMS.
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
		for _, model := range embed.Models() {
			out = append(out, slowSemanticGraphs(task.Name, family,
				sc.prefix+model.Name(), model, sc.texts1, sc.texts2, opts)...)
		}
	}
	return out
}

func slowSemanticGraphs(ds string, family Family, prefix string, model embed.Model, texts1, texts2 []string, opts Options) []SimGraph {
	n1, n2 := len(texts1), len(texts2)
	embAll := func(texts []string) [][]float64 {
		out := make([][]float64, len(texts))
		for i, t := range texts {
			out[i] = model.Embed(t)
		}
		return out
	}
	tvAll := func(texts []string) ([][][]float64, [][]float64) {
		vecs := make([][][]float64, len(texts))
		ws := make([][]float64, len(texts))
		for i, t := range texts {
			v, w := model.TokenVectors(t)
			if len(v) > opts.maxWMDTokens() {
				v, w = v[:opts.maxWMDTokens()], w[:opts.maxWMDTokens()]
			}
			vecs[i] = v
			ws[i] = w
		}
		return vecs, ws
	}
	emb1, emb2 := embAll(texts1), embAll(texts2)
	tv1, tw1 := tvAll(texts1)
	tv2, tw2 := tvAll(texts2)

	builders := [3]*graph.Builder{}
	for k := range builders {
		builders[k] = graph.NewBuilder(n1, n2)
	}
	for i := 0; i < n1; i++ {
		if texts1[i] == "" {
			continue
		}
		for j := 0; j < n2; j++ {
			if texts2[j] == "" {
				continue
			}
			if sim := embed.CosineSim(emb1[i], emb2[j]); sim > 0 {
				builders[0].Add(int32(i), int32(j), sim)
			}
			if sim := embed.EuclideanSim(emb1[i], emb2[j]); sim > 0 {
				builders[1].Add(int32(i), int32(j), sim)
			}
			if sim := relaxedWMS(tv1[i], tw1[i], tv2[j], tw2[j]); sim > 0 {
				builders[2].Add(int32(i), int32(j), sim)
			}
		}
	}
	var out []SimGraph
	for k, name := range embed.Measures() {
		out = slowAppend(out, ds, family, prefix+"/"+name, builders[k])
	}
	return out
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
