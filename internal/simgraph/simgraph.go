// Package simgraph implements the paper's similarity-graph generation
// process (Sections 4-5): it applies every similarity function of the
// taxonomy — schema-based syntactic, schema-agnostic syntactic (bag and
// n-gram-graph models), schema-based semantic and schema-agnostic
// semantic — to a Clean-Clean ER task, producing one weighted bipartite
// similarity graph per function. No blocking is applied: every entity
// pair with similarity above zero becomes an edge, and all graphs are
// min-max normalized.
//
// Generation is the front half of every experiment run and of the
// erserve generation path, so it is built for throughput: per-entity
// representations (token profiles, q-gram profiles, sparse vectors,
// n-gram graphs, embeddings) are precomputed once and shared across all
// measures of a family; token and bag measures enumerate candidate
// pairs through inverted indexes instead of dense double loops; and the
// per-row kernels fan out over the shared internal/par pool with
// slot-ordered assembly, so the output is deterministic and identical
// at any worker count.
//
// The package also applies the first of the paper's cleaning rules
// (dropping graphs in which no matching pair has a positive weight); the
// F-measure-based rules need matching results and live in internal/exp.
package simgraph

import (
	"context"
	"fmt"
	"math"
	"slices"

	"github.com/ccer-go/ccer/internal/dataset"
	"github.com/ccer-go/ccer/internal/embed"
	"github.com/ccer-go/ccer/internal/graph"
	"github.com/ccer-go/ccer/internal/ngraph"
	"github.com/ccer-go/ccer/internal/obs"
	"github.com/ccer-go/ccer/internal/par"
	"github.com/ccer-go/ccer/internal/strsim"
	"github.com/ccer-go/ccer/internal/vector"
)

// Family is one of the four types of edge weights of the paper's
// taxonomy.
type Family string

const (
	// SBSyn: schema-based syntactic weights (16 string measures per key
	// attribute).
	SBSyn Family = "SB-SYN"
	// SASyn: schema-agnostic syntactic weights (6 bag models × 6
	// measures plus 6 n-gram-graph models × 4 measures).
	SASyn Family = "SA-SYN"
	// SBSem: schema-based semantic weights (2 embedding models × 3
	// measures per key attribute).
	SBSem Family = "SB-SEM"
	// SASem: schema-agnostic semantic weights (2 embedding models × 3
	// measures).
	SASem Family = "SA-SEM"
)

// Families returns the four weight families in the paper's presentation
// order.
func Families() []Family { return []Family{SBSyn, SASyn, SBSem, SASem} }

// SimGraph is one generated similarity graph.
type SimGraph struct {
	// Dataset is the task name, e.g. "D2".
	Dataset string
	// Family is the weight family the graph belongs to.
	Family Family
	// Name identifies the similarity function, e.g. "name/Levenshtein"
	// or "char3/CosineTF".
	Name string
	// G is the min-max normalized similarity graph.
	G *graph.Bipartite
}

// Options tunes corpus generation.
type Options struct {
	// Families selects which weight families to generate; nil means all
	// four.
	Families []Family
	// MaxWMDTokens caps the tokens per entity considered by the relaxed
	// Word Mover's similarity; 0 means 6. WMD cost is quadratic in this.
	MaxWMDTokens int
	// KeepNoMatchGraphs disables the cleaning rule that drops graphs in
	// which every matching pair has zero weight.
	KeepNoMatchGraphs bool
	// Parallelism is the number of workers the per-row generation
	// kernels fan out over (internal/par semantics: 0 means all CPUs,
	// anything below 1 means serial). Output is deterministic and
	// identical at any setting.
	Parallelism int
	// Caches, when non-nil, supplies the cross-build representation
	// caches (TF/TF-IDF spaces, n-gram graphs, embeddings, schema-based
	// attribute profiles). Representations are pure functions of the
	// texts, so cached builds are byte-identical to fresh ones; a
	// resident service shares one RepCaches across requests.
	Caches *RepCaches
	// Trace, when non-nil, receives one span per generation stage
	// (representation builds, row-kernel fan-outs, graph assembly),
	// nested under a "generate/<family>" span per family. A nil Trace
	// costs nothing: spans are recorded per stage, never per pair, and
	// every span call is a no-op on nil.
	Trace *obs.Trace
}

// FamilyStats counts candidate-filter decisions of one weight family:
// Visited is the number of kernel-block computations performed, Skipped
// the number proven unnecessary by a lossless zero-score filter (the
// pair could not have produced a positive edge for that block's
// measures). For SB-SYN a pair contributes up to three blocks (char
// measures, token measures, and the always-dense Needleman-Wunsch); for
// SA-SYN one block per representation model (bag and n-gram-graph); the
// semantic families are dense by nature (their measures are positive
// for every non-empty pair), so their Skipped stays 0.
type FamilyStats struct {
	Visited int64
	Skipped int64
}

// SkipRatio returns Skipped / (Visited + Skipped), 0 when nothing ran.
func (s FamilyStats) SkipRatio() float64 {
	if s.Visited+s.Skipped == 0 {
		return 0
	}
	return float64(s.Skipped) / float64(s.Visited+s.Skipped)
}

// GenStats aggregates the per-family filter counters of one generation.
type GenStats struct {
	SBSyn, SASyn, SBSem, SASem FamilyStats
}

// Of returns the stats of one family.
func (s GenStats) Of(f Family) FamilyStats {
	switch f {
	case SBSyn:
		return s.SBSyn
	case SASyn:
		return s.SASyn
	case SBSem:
		return s.SBSem
	default:
		return s.SASem
	}
}

// Add accumulates counters for one family (exported for callers that
// aggregate stats across multiple generations, e.g. internal/exp).
func (s *GenStats) Add(f Family, visited, skipped int64) {
	var fs *FamilyStats
	switch f {
	case SBSyn:
		fs = &s.SBSyn
	case SASyn:
		fs = &s.SASyn
	case SBSem:
		fs = &s.SBSem
	default:
		fs = &s.SASem
	}
	fs.Visited += visited
	fs.Skipped += skipped
}

// Total sums the family counters.
func (s GenStats) Total() FamilyStats {
	return FamilyStats{
		Visited: s.SBSyn.Visited + s.SASyn.Visited + s.SBSem.Visited + s.SASem.Visited,
		Skipped: s.SBSyn.Skipped + s.SASyn.Skipped + s.SBSem.Skipped + s.SASem.Skipped,
	}
}

// famCounters are the per-worker counter slots of one kernel fan-out;
// summed after par.For returns, so no atomics are needed.
type famCounters struct {
	visited, skipped []int64
}

func newFamCounters(workers int) *famCounters {
	return &famCounters{visited: make([]int64, workers), skipped: make([]int64, workers)}
}

func (c *famCounters) sum() (visited, skipped int64) {
	for w := range c.visited {
		visited += c.visited[w]
		skipped += c.skipped[w]
	}
	return visited, skipped
}

func (o Options) families() []Family {
	if len(o.Families) == 0 {
		return Families()
	}
	return o.Families
}

func (o Options) maxWMDTokens() int {
	if o.MaxWMDTokens <= 0 {
		return 6
	}
	return o.MaxWMDTokens
}

// sbMeasureNames are the SB-SYN measures in the fixed order that keeps
// generation deterministic: the seven character measures, then the nine
// token measures in strsim.TokenSims order. A measure's index is its
// slot in the row kernel.
var sbMeasureNames = []string{
	"Levenshtein", "DamerauLevenshtein", "Jaro", "NeedlemanWunsch",
	"QGramsDistance", "LongestCommonSubstr", "LongestCommonSubseq",
	"Cosine", "BlockDistance", "Dice", "SimonWhite",
	"OverlapCoefficient", "Euclidean", "Jaccard",
	"GeneralizedJaccard", "MongeElkan",
}

// measureSet selects row-kernel slots: bit k enables sbMeasureNames[k].
type measureSet uint16

const (
	numChar = 7  // character measures lead sbMeasureNames
	nwSlot  = 3  // Needleman-Wunsch
	meSlot  = 15 // Monge-Elkan

	allSet   measureSet = 1<<16 - 1
	nwSet    measureSet = 1 << nwSlot
	charSet  measureSet = (1<<numChar - 1) &^ nwSet  // the alphabet-gated char measures
	tokenSet measureSet = allSet &^ (1<<numChar - 1) // the nine token measures
	meSet    measureSet = 1 << meSlot
)

// rowEdge is one output of a row kernel: the opposite-side node and the
// weight, tagged with the measure it belongs to. Rows are assembled into
// per-measure builders in slot order, so the edge set never depends on
// worker scheduling.
type rowEdge struct {
	k   int32 // measure index
	opp int32 // opposite-side node
	w   float64
}

// reserveRows sizes each measure's builder for the edges the assembled
// rows are about to Add, avoiding repeated growth. Nil builders are
// slots the rows never use.
func reserveRows(builders []*graph.Builder, rows [][]rowEdge) {
	counts := make([]int, len(builders))
	for _, row := range rows {
		for _, e := range row {
			counts[e.k]++
		}
	}
	for k, b := range builders {
		if b != nil {
			b.Reserve(counts[k])
		}
	}
}

// sealRow stores an exact-size copy of the worker's row buffer in the
// slot and hands the buffer back for reuse, so per-row appends grow one
// buffer per worker instead of reallocating per row.
func sealRow(slot *[]rowEdge, buf []rowEdge) []rowEdge {
	if len(buf) > 0 {
		*slot = append(make([]rowEdge, 0, len(buf)), buf...)
	}
	return buf[:0]
}

// Generate builds the similarity-graph corpus for the task. keyAttrs are
// the schema-based attributes (Spec.KeyAttrs for generated datasets).
//
// Every similarity function is pure and only the matching step is ever
// timed, so generation parallelizes freely: each family's pairwise
// kernel fans its rows over the shared worker pool and the output order
// stays deterministic (families in taxonomy order, graphs in function
// order within each family, identical edges at any parallelism).
func Generate(task *dataset.Task, keyAttrs []string, opts Options) []SimGraph {
	out, _ := GenerateStats(task, keyAttrs, opts)
	return out
}

// GenerateStats is Generate, also reporting the per-family candidate-
// filter counters (pairs visited vs. provably skipped).
func GenerateStats(task *dataset.Task, keyAttrs []string, opts Options) ([]SimGraph, GenStats) {
	workers := par.Workers(opts.Parallelism)
	var models []embed.Model
	var out []SimGraph
	var stats GenStats
	for _, f := range opts.families() {
		endFam := opts.Trace.StartSpan("generate/" + string(f))
		switch f {
		case SBSyn:
			out = append(out, schemaBasedSyntactic(task, keyAttrs, workers, opts, &stats)...)
		case SASyn:
			out = append(out, schemaAgnosticSyntactic(task, workers, opts, &stats)...)
		case SBSem, SASem:
			if models == nil {
				// One token-vector cache pair serves both semantic
				// families; embeddings are unchanged by it. With caches
				// attached the models (and their token-vector caches)
				// persist across builds.
				endModels := opts.Trace.StartSpanUnder("generate/"+string(f), "models")
				models = opts.Caches.sems().Models()
				endModels()
			}
			if f == SBSem {
				out = append(out, semantic(task, keyAttrs, opts, SBSem, workers, models, &stats)...)
			} else {
				out = append(out, semantic(task, nil, opts, SASem, workers, models, &stats)...)
			}
		}
		endFam()
	}
	if !opts.KeepNoMatchGraphs {
		endClean := opts.Trace.StartSpan("clean/no-match")
		out = filterNoMatchGraphs(out, task.GT)
		endClean()
	}
	return out, stats
}

// filterNoMatchGraphs drops graphs in which every ground-truth pair has a
// zero weight (no edge), the paper's first cleaning rule.
func filterNoMatchGraphs(graphs []SimGraph, gt *dataset.GroundTruth) []SimGraph {
	kept := graphs[:0:0]
	for _, sg := range graphs {
		if hasMatchEdge(sg.G, gt) {
			kept = append(kept, sg)
		}
	}
	return kept
}

// hasMatchEdge reports whether any ground-truth pair is an edge of g,
// walking the graph's edge set against the GT lookup with an early exit
// on the first hit. It deliberately avoids the adjacency probes: the
// graph's matching indexes are built lazily, and the cleaning filter
// must not force them for graphs whose only consumer is this check. A
// nil gt panics (as the seed implementation did) rather than silently
// classifying every graph as no-match.
func hasMatchEdge(g *graph.Bipartite, gt *dataset.GroundTruth) bool {
	for _, e := range g.Edges() {
		if gt.IsMatch(e.U, e.V) {
			return true
		}
	}
	return false
}

// schemaBasedSyntactic applies the 16 string measures to each key
// attribute as row kernels over the precomputed attrReps bundle.
func schemaBasedSyntactic(task *dataset.Task, keyAttrs []string, workers int, opts Options, stats *GenStats) []SimGraph {
	var out []SimGraph
	const parent = "generate/" + string(SBSyn)
	for _, attr := range keyAttrs {
		endReps := opts.Trace.StartSpanUnder(parent, "reps/"+attr)
		reps := attrRepsFor(opts.Caches, task.V1.AttrTexts(attr), task.V2.AttrTexts(attr))
		endReps()

		endRows := opts.Trace.StartSpanUnder(parent, "rows/"+attr)
		rows, fs := sbRows(reps, allSet, 0, workers, nil)
		stats.Add(SBSyn, fs.Visited, fs.Skipped)
		endRows()

		endAsm := opts.Trace.StartSpanUnder(parent, "assemble/"+attr)
		for k, b := range sbBuilders(rows, allSet, len(reps.texts2)) {
			out = appendGraph(out, task.Name, SBSyn, attr+"/"+sbMeasureNames[k], b)
		}
		endAsm()
	}
	return out
}

// CheckMeasure reports whether name is one of the 16 SB-SYN measures,
// with an error listing them when it is not.
func CheckMeasure(name string) error {
	_, err := measureSlot(name)
	return err
}

func measureSlot(name string) (int, error) {
	for k, n := range sbMeasureNames {
		if n == name {
			return k, nil
		}
	}
	names := slices.Clone(sbMeasureNames)
	slices.Sort(names)
	return 0, fmt.Errorf("unknown measure %q; have %v", name, names)
}

// MeasureGraph builds the min-max-normalized similarity graph of one
// named SB-SYN measure between two text columns: every pair of non-empty
// texts whose score is above max(minSim, 0) is an edge. It runs the
// family's row kernel with only that measure enabled, so a pair is
// visited only when the measure's lossless filter admits it, over
// representations built for this call alone (no RepCaches). Rows fan
// over parallelism workers (par.Workers semantics) and the graph is
// identical at any setting. ctx is polled between rows; a cancelled
// build returns ctx's error. The stats count the pairs visited and
// skipped.
func MeasureGraph(ctx context.Context, texts1, texts2 []string, measure string, minSim float64, parallelism int) (*graph.Bipartite, FamilyStats, error) {
	k, err := measureSlot(measure)
	if err != nil {
		return nil, FamilyStats{}, err
	}
	want := measureSet(1) << k
	rows, fs := sbRows(buildAttrReps(texts1, texts2), want, max(minSim, 0),
		par.Workers(parallelism), func() bool { return ctx.Err() != nil })
	if err := ctx.Err(); err != nil {
		return nil, fs, err
	}
	g, err := sbBuilders(rows, want, len(texts2))[k].BuildNormalized()
	return g, fs, err
}

// sbRows is the SB-SYN row kernel over one attribute's bundle, with the
// measures in want enabled and weights above cut kept. Each row streams
// all n2 right strings through the left entity's bit-parallel pattern
// state, but per pair only the enabled measure blocks that can produce a
// positive edge run:
//
//   - Needleman-Wunsch is computed for every non-empty pair — with the
//     paper's scoring it is positive for EVERY such pair (min/(2·max)
//     even for disjoint alphabets), so its graph is dense by
//     construction and no lossless filter exists; the bit-parallel
//     kernel makes the mandatory dense scan cheap.
//   - The six other char measures run only when the raw-rune signatures
//     intersect (disjoint alphabets provably score 0 on all of them).
//   - The nine token measures run only for pairs sharing a token (the
//     postings index), for pairs whose token profiles are both empty
//     (every token measure defines that case as 1), and — Monge-Elkan
//     alone — for pairs whose token-rune signatures intersect without a
//     shared token (ME's Smith-Waterman core only needs a shared
//     character; the other eight are provably 0 without a shared token).
//
// Rows fan over the worker pool, polling stop (which may be nil) between
// rows; each row keeps j ascending, so assembling the rows in slot order
// gives output identical at any worker count and equal to the seed
// pipeline's dense loops.
func sbRows(reps *attrReps, want measureSet, cut float64, workers int, stop func() bool) ([][]rowEdge, FamilyStats) {
	texts1, texts2 := reps.texts1, reps.texts2
	n1, n2 := len(texts1), len(texts2)
	tokWant := uint16(want >> numChar)
	rows := make([][]rowEdge, n1)
	rowBufs := make([][]rowEdge, workers)
	swCaches := make([]*strsim.SWCache, workers)
	charScr := make([]*strsim.CharScratch, workers)
	candBits := make([][]uint64, workers)
	candLists := make([][]int32, workers)
	ctr := newFamCounters(workers)
	for w := range swCaches {
		swCaches[w] = strsim.NewSWCache()
		charScr[w] = strsim.NewCharScratch()
		candBits[w] = make([]uint64, (n2+63)/64)
	}
	par.For(n1, workers, stop, func(w, i int) {
		if texts1[i] == "" {
			return
		}
		cp, scr := reps.cps1[i], charScr[w]
		ra := cp.Runes()
		row := rowBufs[w][:0]
		rawSig := reps.rawSig1[i]
		tokSig := reps.tokSig1[i]
		leftTokEmpty := reps.prof1[i].Len() == 0
		bits := candBits[w]
		if want&tokenSet != 0 {
			candLists[w] = reps.tokIndex.CandidateBits(reps.queryIDs1[i], bits, candLists[w])
		}
		visited, skipped := int64(0), int64(0)
		// Measure indexes follow sbMeasureNames order; within a j, block
		// order is free (edges bucket per measure), but j stays ascending
		// for every measure.
		for j := 0; j < n2; j++ {
			if texts2[j] == "" {
				continue
			}
			rb := reps.runes2[j]
			if want&nwSet != 0 {
				visited++
				if sim := cp.NeedlemanWunsch(rb); sim > cut {
					row = append(row, rowEdge{nwSlot, int32(j), sim})
				}
			}
			if want&charSet != 0 {
				if rawSig.Intersects(reps.rawSig2[j]) {
					visited++
					if want&(1<<0) != 0 {
						if sim := cp.Levenshtein(rb, scr); sim > cut {
							row = append(row, rowEdge{0, int32(j), sim})
						}
					}
					if want&(1<<1) != 0 {
						if sim := cp.DamerauLevenshtein(rb, scr); sim > cut {
							row = append(row, rowEdge{1, int32(j), sim})
						}
					}
					if want&(1<<2) != 0 {
						if sim := strsim.JaroSeqBitpar(ra, rb, reps.jaro2[j], scr); sim > cut {
							row = append(row, rowEdge{2, int32(j), sim})
						}
					}
					if want&(1<<4) != 0 {
						if sim := reps.qp1[i].Distance(reps.qp2[j]); sim > cut {
							row = append(row, rowEdge{4, int32(j), sim})
						}
					}
					if want&(1<<5) != 0 {
						if sim := cp.LongestCommonSubstring(rb); sim > cut {
							row = append(row, rowEdge{5, int32(j), sim})
						}
					}
					if want&(1<<6) != 0 {
						if sim := cp.LongestCommonSubsequence(rb, scr); sim > cut {
							row = append(row, rowEdge{6, int32(j), sim})
						}
					}
				} else {
					skipped++
				}
			}
			if want&tokenSet == 0 {
				continue
			}
			shared := bits[j>>6]&(1<<(uint(j)&63)) != 0
			bothEmpty := leftTokEmpty && reps.prof2[j].Len() == 0
			switch {
			case shared || bothEmpty:
				visited++
				sims := strsim.TokenSims(reps.prof1[i], reps.prof2[j], tokWant, swCaches[w])
				for k, sim := range sims {
					if sim > cut {
						row = append(row, rowEdge{int32(numChar + k), int32(j), sim})
					}
				}
			case want&meSet != 0 && tokSig.Intersects(reps.tokSig2[j]):
				// No shared token: the eight merge-join measures are
				// provably 0; only Monge-Elkan can be positive.
				visited++
				if sim := reps.prof1[i].MongeElkan(reps.prof2[j], swCaches[w]); sim > cut {
					row = append(row, rowEdge{meSlot, int32(j), sim})
				}
			default:
				skipped++
			}
		}
		for _, m := range candLists[w] {
			bits[m>>6] &^= 1 << (uint(m) & 63)
		}
		ctr.visited[w] += visited
		ctr.skipped[w] += skipped
		rowBufs[w] = sealRow(&rows[i], row)
	})
	v, sk := ctr.sum()
	return rows, FamilyStats{Visited: v, Skipped: sk}
}

// sbBuilders assembles row-kernel rows into one builder per slot in
// want, indexed by slot (nil for the others), adding each measure's
// edges in row order.
func sbBuilders(rows [][]rowEdge, want measureSet, n2 int) []*graph.Builder {
	builders := make([]*graph.Builder, len(sbMeasureNames))
	for k := range builders {
		if want&(1<<k) != 0 {
			builders[k] = graph.NewBuilder(len(rows), n2)
		}
	}
	reserveRows(builders, rows)
	for i, row := range rows {
		for _, e := range row {
			builders[e.k].Add(int32(i), e.opp, e.w)
		}
	}
	return builders
}

func tokenizeAll(texts []string) [][]string {
	out := make([][]string, len(texts))
	for i, t := range texts {
		out[i] = strsim.Tokenize(t)
	}
	return out
}

func qgramProfiles(vocab *strsim.QGramVocab, texts []string) []*strsim.QGramIDProfile {
	out := make([]*strsim.QGramIDProfile, len(texts))
	for i, t := range texts {
		out[i] = vocab.Profile(t, 3)
	}
	return out
}

// schemaAgnosticSyntactic produces the 36 bag-model graphs and 24
// n-gram-graph-model graphs of Section 4. Representation models run in
// order; within each model the candidate rows fan over the worker pool.
// The entity texts are tokenized once and shared by the three token
// models (the char models ignore the token lists).
func schemaAgnosticSyntactic(task *dataset.Task, workers int, opts Options, stats *GenStats) []SimGraph {
	endTok := opts.Trace.StartSpanUnder("generate/"+string(SASyn), "tokenize")
	texts1 := task.V1.Texts()
	texts2 := task.V2.Texts()
	toks1 := tokenizeAll(texts1)
	toks2 := tokenizeAll(texts2)
	values1 := profileValues(task.V1)
	values2 := profileValues(task.V2)
	endTok()
	var out []SimGraph
	for _, mode := range vector.Modes() {
		out = append(out, schemaAgnosticMode(task, mode, workers, opts, stats,
			texts1, texts2, toks1, toks2, values1, values2)...)
	}
	return out
}

func profileValues(c *dataset.Collection) [][]string {
	out := make([][]string, len(c.Profiles))
	for i, p := range c.Profiles {
		out[i] = p.Values()
	}
	return out
}

// emptyIndexes returns the ascending indexes for which isEmpty reports
// true — the left-side candidates of an empty right entity: for both bag
// and n-gram-graph models an empty-vs-empty pair scores 1 on the
// measures that define emptiness as identity (Jaccard variants; all four
// graph measures), so candidate enumeration must pair the empties with
// each other or those edges would be lost. The bag models widen "empty"
// to "all TF-IDF weights zero", see zeroWeights.
func emptyIndexes(n int, isEmpty func(i int) bool) []int32 {
	var out []int32
	for i := 0; i < n; i++ {
		if isEmpty(i) {
			out = append(out, int32(i))
		}
	}
	return out
}

// zeroWeights reports whether every weight of v is 0, as for an empty v
// or a TF-IDF vector whose grams all get IDF 0 (each occurs in all or
// all but one document). GeneralizedJaccardTFIDF scores a pair of such
// vectors 1 (its Σmax is 0) whether or not they share a gram.
func zeroWeights(v vector.Vec) bool {
	for _, w := range v.Ws {
		if w != 0 {
			return false
		}
	}
	return true
}

// rowScratch is the per-worker reusable state of a candidate-row kernel.
type rowScratch struct {
	bits []uint64
	buf  []int32
	row  []rowEdge
}

// schemaAgnosticMode builds the 6 bag graphs and 4 n-gram-graph graphs of
// one representation model. Candidate rows visit only the pairs that can
// score positive: pairs sharing a gram (postings) plus — losslessly —
// empty-vs-empty pairs, which the Jaccard-family bag measures and all
// four graph measures define as similarity 1, and for the bag models
// pairs of zero-weight TF-IDF vectors (zeroWeights).
func schemaAgnosticMode(task *dataset.Task, mode vector.Mode, workers int, opts Options, stats *GenStats,
	texts1, texts2 []string, toks1, toks2 [][]string, values1, values2 [][]string) []SimGraph {
	n1, n2 := len(texts1), len(texts2)
	var out []SimGraph
	const parent = "generate/" + string(SASyn)

	// Bag models: all 6 measures in one merge join per candidate pair,
	// candidates enumerated per collection-2 row through the space's
	// inverted index with a reusable bitset.
	endSpace := opts.Trace.StartSpanUnder(parent, "bag-space/"+mode.String())
	space := opts.Caches.spaces().Get(mode, texts1, texts2, toks1, toks2)
	space.CacheTFIDF() // materialize the per-entity caches before fanning out
	zeroDocs1 := emptyIndexes(n1, func(i int) bool { return zeroWeights(space.TFIDF(1, i)) })
	endSpace()
	endBagRows := opts.Trace.StartSpanUnder(parent, "bag-rows/"+mode.String())
	bagRows := make([][]rowEdge, n2)
	scratch := make([]rowScratch, workers)
	ctr := newFamCounters(workers)
	for w := range scratch {
		scratch[w].bits = make([]uint64, (n1+63)/64)
	}
	par.For(n2, workers, nil, func(w, j int) {
		s := &scratch[w]
		cands := zeroDocs1
		if space.TF(2, j).Len() != 0 {
			s.buf = space.Candidates(j, s.bits, s.buf)
			cands = s.buf
			if zeroWeights(space.TFIDF(2, j)) {
				merged := append(slices.Clone(cands), zeroDocs1...)
				slices.Sort(merged)
				cands = slices.Compact(merged)
			}
		}
		row := s.row[:0]
		for _, i := range cands {
			sims := space.AllSims(int(i), j)
			for k, sim := range sims {
				if sim > 0 {
					row = append(row, rowEdge{int32(k), i, sim})
				}
			}
		}
		ctr.visited[w] += int64(len(cands))
		ctr.skipped[w] += int64(n1 - len(cands))
		s.row = sealRow(&bagRows[j], row)
	})
	v, sk := ctr.sum()
	stats.Add(SASyn, v, sk)
	endBagRows()
	endBagAsm := opts.Trace.StartSpanUnder(parent, "bag-assemble/"+mode.String())
	bagBuilders := make([]*graph.Builder, 6)
	for k := range bagBuilders {
		bagBuilders[k] = graph.NewBuilder(n1, n2)
	}
	reserveRows(bagBuilders, bagRows)
	for j, row := range bagRows {
		for _, e := range row {
			bagBuilders[e.k].Add(e.opp, int32(j), e.w)
		}
	}
	for k, name := range vector.Measures() {
		out = appendGraph(out, task.Name, SASyn, mode.String()+"/"+name, bagBuilders[k])
	}
	endBagAsm()

	// N-gram graph models: per-value graphs merged per entity once, all
	// 4 measures in one merge join over pairs sharing at least one gram
	// node (CSR postings over collection 1), plus the empty-graph pairs
	// (edge-less graphs score 1 against each other on all four
	// measures). The bundle — graphs, node ids, postings — comes from
	// the cross-build cache when one is attached.
	endGramReps := opts.Trace.StartSpanUnder(parent, "gram-reps/"+mode.String())
	reps := opts.Caches.grams().Get(mode, values1, values2)
	emptyGraphs1 := emptyIndexes(n1, func(i int) bool { return reps.Graphs1[i].NumEdges() == 0 })
	endGramReps()
	endGramRows := opts.Trace.StartSpanUnder(parent, "gram-rows/"+mode.String())
	gramRows := make([][]rowEdge, n2)
	gctr := newFamCounters(workers)
	par.For(n2, workers, nil, func(w, j int) {
		s := &scratch[w]
		cands := emptyGraphs1
		if reps.Graphs2[j].NumEdges() != 0 {
			s.buf = vector.UnionCandidates(reps.IDs2[j], reps.Post1Off, reps.Post1IDs, s.bits, s.buf)
			cands = s.buf
		}
		row := s.row[:0]
		for _, i := range cands {
			sims := ngraph.AllSims(reps.Graphs1[i], reps.Graphs2[j])
			for k, sim := range sims {
				if sim > 0 {
					row = append(row, rowEdge{int32(k), i, sim})
				}
			}
		}
		gctr.visited[w] += int64(len(cands))
		gctr.skipped[w] += int64(n1 - len(cands))
		s.row = sealRow(&gramRows[j], row)
	})
	v, sk = gctr.sum()
	stats.Add(SASyn, v, sk)
	endGramRows()
	endGramAsm := opts.Trace.StartSpanUnder(parent, "gram-assemble/"+mode.String())
	gBuilders := make([]*graph.Builder, 4)
	for k := range gBuilders {
		gBuilders[k] = graph.NewBuilder(n1, n2)
	}
	reserveRows(gBuilders, gramRows)
	for j, row := range gramRows {
		for _, e := range row {
			gBuilders[e.k].Add(e.opp, int32(j), e.w)
		}
	}
	for k, name := range ngraph.Measures() {
		out = appendGraph(out, task.Name, SASyn, mode.String()+"g/"+name, gBuilders[k])
	}
	endGramAsm()
	return out
}

// semantic produces embedding-based graphs: schema-based when keyAttrs is
// non-empty (one set per attribute) or schema-agnostic on the full
// profile texts. Every semantic measure is positive for every non-empty
// pair (Euclidean and relaxed-WMS by their 1/(1+d) form, cosine except
// at exactly opposite vectors), so the family is dense by nature and
// only the per-entity representation work can be amortized: each scope
// is tokenized once for both models, and the embeddings come from the
// cross-build cache when one is attached.
func semantic(task *dataset.Task, keyAttrs []string, opts Options, family Family, workers int, models []embed.Model, stats *GenStats) []SimGraph {
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
	parent := "generate/" + string(family)
	for _, sc := range scopes {
		endTok := opts.Trace.StartSpanUnder(parent, "tokenize/"+sc.prefix+"*")
		toks1 := embed.TokenizeAll(sc.texts1)
		toks2 := embed.TokenizeAll(sc.texts2)
		endTok()
		for _, model := range models {
			out = append(out, semanticGraphs(task.Name, family,
				sc.prefix+model.Name(), model, sc.texts1, sc.texts2, toks1, toks2, opts, workers, stats)...)
		}
	}
	return out
}

func semanticGraphs(ds string, family Family, prefix string, model embed.Model, texts1, texts2 []string, toks1, toks2 [][]string, opts Options, workers int, stats *GenStats) []SimGraph {
	n1, n2 := len(texts1), len(texts2)
	parent := "generate/" + string(family)

	// One TokenVectors pass per entity feeds both the text embedding and
	// the truncated token vectors (the seed recomputed them separately).
	endEmbed := opts.Trace.StartSpanUnder(parent, "embed/"+prefix)
	ev1 := opts.Caches.sems().Reps(model, texts1, toks1, opts.maxWMDTokens())
	ev2 := opts.Caches.sems().Reps(model, texts2, toks2, opts.maxWMDTokens())
	endEmbed()

	endRows := opts.Trace.StartSpanUnder(parent, "rows/"+prefix)
	maxTok2 := 0
	for _, vecs := range ev2.TV {
		if len(vecs) > maxTok2 {
			maxTok2 = len(vecs)
		}
	}
	rows := make([][]rowEdge, n1)
	rowBufs := make([][]rowEdge, workers)
	colBests := make([][]float64, workers)
	ctr := newFamCounters(workers)
	for w := range colBests {
		colBests[w] = make([]float64, maxTok2)
	}
	par.For(n1, workers, nil, func(w, i int) {
		if texts1[i] == "" {
			return
		}
		row := rowBufs[w][:0]
		colBest := colBests[w]
		va, wa := ev1.TV[i], ev1.TW[i]
		for j := 0; j < n2; j++ {
			if texts2[j] == "" {
				continue
			}
			ctr.visited[w]++
			cos, euc := embed.CosineEuclidean(ev1.Emb[i], ev2.Emb[j],
				ev1.NormSq[i], ev2.NormSq[j])
			if cos > 0 {
				row = append(row, rowEdge{0, int32(j), cos})
			}
			if euc > 0 {
				row = append(row, rowEdge{1, int32(j), euc})
			}
			if sim := relaxedWMSFused(va, wa, ev2.TV[j], ev2.TW[j], colBest); sim > 0 {
				row = append(row, rowEdge{2, int32(j), sim})
			}
		}
		rowBufs[w] = sealRow(&rows[i], row)
	})
	v, sk := ctr.sum()
	stats.Add(family, v, sk)
	endRows()

	endAsm := opts.Trace.StartSpanUnder(parent, "assemble/"+prefix)
	builders := [3]*graph.Builder{}
	for k := range builders {
		builders[k] = graph.NewBuilder(n1, n2)
	}
	reserveRows(builders[:], rows)
	for i, row := range rows {
		for _, e := range row {
			builders[e.k].Add(int32(i), e.opp, e.w)
		}
	}
	var out []SimGraph
	for k, name := range embed.Measures() {
		out = appendGraph(out, ds, family, prefix+"/"+name, builders[k])
	}
	endAsm()
	return out
}

// relaxedWMS mirrors embed.WordMoversSim over pre-computed token vectors.
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

// relaxedWMSFused is relaxedWMS computing both directional transport
// costs from ONE pass over the |va|×|vb| token distance matrix instead
// of two: iterating (v, u) with u inner tracks each v's row minimum in
// directional's exact comparison order, and updates each u's column
// minimum at ascending v — also directional's scan order for the
// reverse direction, whose distances (u[k]-v[k])² are the bit-exact
// squares of the negated differences computed here. Halves the
// quadratic inner work per pair with bit-identical results.
//
// colBest is caller scratch of at least len(vb) floats.
func relaxedWMSFused(va [][]float64, wa []float64, vb [][]float64, wb []float64, colBest []float64) float64 {
	if len(va) == 0 || len(vb) == 0 {
		return 0
	}
	colBest = colBest[:len(vb)]
	for t := range colBest {
		colBest[t] = -1
	}
	d1 := 0.0
	for ti, v := range va {
		rowBest := -1.0
		for tj, u := range vb {
			// Reslicing u to v's length lets the compiler drop the
			// bounds check in the dimension loop (both vectors come from
			// the same model, so the lengths are equal), and the 4-way
			// unroll keeps the adds in index order, so the sum is
			// bit-identical to the plain loop.
			u = u[:len(v)]
			s := 0.0
			k := 0
			for ; k+4 <= len(v); k += 4 {
				d0 := v[k] - u[k]
				s += d0 * d0
				d1 := v[k+1] - u[k+1]
				s += d1 * d1
				d2 := v[k+2] - u[k+2]
				s += d2 * d2
				d3 := v[k+3] - u[k+3]
				s += d3 * d3
			}
			for ; k < len(v); k++ {
				dd := v[k] - u[k]
				s += dd * dd
			}
			if rowBest < 0 || s < rowBest {
				rowBest = s
			}
			if cb := colBest[tj]; cb < 0 || s < cb {
				colBest[tj] = s
			}
		}
		if rowBest > 0 {
			d1 += wa[ti] * math.Sqrt(rowBest)
		}
	}
	d2 := 0.0
	for tj := range colBest {
		if cb := colBest[tj]; cb > 0 {
			d2 += wb[tj] * math.Sqrt(cb)
		}
	}
	if d2 > d1 {
		d1 = d2
	}
	return 1 / (1 + d1)
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

func appendGraph(out []SimGraph, ds string, family Family, name string, b *graph.Builder) []SimGraph {
	// Build + min-max normalization fused into one graph assembly; the
	// golden tests pin it against the two-step Build().NormalizeMinMax().
	g, err := b.BuildNormalized()
	if err != nil {
		// Builders are fed validated indexes; an error here is a bug.
		panic(fmt.Sprintf("simgraph: %v", err))
	}
	return append(out, SimGraph{Dataset: ds, Family: family, Name: name, G: g})
}
