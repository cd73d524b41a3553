// Package embed provides deterministic synthetic stand-ins for the
// pre-trained semantic representation models the paper uses — fastText
// (character-level pre-trained embeddings) and ALBERT (transformer-based
// contextual embeddings) — and the names of the three semantic
// similarity measures it applies to them: cosine, Euclidean and (relaxed)
// Word Mover's similarity. CosineEuclidean computes the first two;
// internal/simgraph computes the third from the models' token vectors.
//
// The substitution, recorded in DESIGN.md, keeps the code paths and the
// behavioural properties that drive the paper's findings:
//
//   - FastTextLike composes a token vector as the sum of hashed character
//     n-gram vectors (fastText's architecture with a random instead of a
//     learned basis), so morphologically close tokens get close vectors
//     and there are no out-of-vocabulary failures.
//   - ContextualLike hashes (token, context-window) pairs, so the same
//     token gets different vectors in different contexts, and adds a
//     shared bias component that inflates all-pairs similarity — the
//     property the paper identifies as the reason semantic weights
//     degrade every matching algorithm, especially schema-agnostically.
//
// Everything is seeded and pure: the same text always embeds to the same
// vector.
package embed

import (
	"hash/fnv"
	"math"
	"sync"

	"github.com/ccer-go/ccer/internal/strsim"
)

// Model converts a text into a dense vector.
type Model interface {
	// Name identifies the model, e.g. "fasttext" or "albert".
	Name() string
	// Dim returns the vector dimensionality.
	Dim() int
	// TokenVectors returns per-token vectors with TF weights, used by
	// Word Mover's similarity.
	TokenVectors(text string) ([][]float64, []float64)
}

// VecCache memoizes derived vectors by string key (a token, or a
// token-with-context window). Both models are pure, so a cached vector
// is bit-identical to recomputing it; attaching a cache to a model is
// purely a speed knob. Cached slices are shared with callers and must be
// treated as immutable. Safe for concurrent use.
//
// One cache must not be shared between models with different
// configurations (dimension or bias), since the key does not encode
// them.
type VecCache struct {
	mu  sync.RWMutex
	m   map[string][]float64
	max int // 0 = unbounded (per-build scope); > 0 evicts at the bound
}

// NewVecCache returns an empty, unbounded vector cache — the right
// shape for caches scoped to one corpus build.
func NewVecCache() *VecCache { return &VecCache{m: make(map[string][]float64)} }

// NewBoundedVecCache returns a cache that evicts (arbitrary) entries
// once it holds max vectors, for caches that persist for a process
// lifetime (embed.RepCache): the values are pure functions of their
// keys, so eviction never changes results, only recompute cost. The map
// grows with its entries; max is a bound, not a size hint.
func NewBoundedVecCache(max int) *VecCache {
	if max < 1 {
		max = 1
	}
	return &VecCache{m: make(map[string][]float64), max: max}
}

// get returns the cached vector for key, or nil.
func (c *VecCache) get(key string) []float64 {
	if c == nil {
		return nil
	}
	c.mu.RLock()
	v := c.m[key]
	c.mu.RUnlock()
	return v
}

// put stores v under key and returns v.
func (c *VecCache) put(key string, v []float64) []float64 {
	if c == nil {
		return v
	}
	c.mu.Lock()
	if c.max > 0 && len(c.m) >= c.max {
		for k := range c.m {
			delete(c.m, k)
			if len(c.m) < c.max {
				break
			}
		}
	}
	c.m[key] = v
	c.mu.Unlock()
	return v
}

// hashVec fills out with deterministic pseudo-random values in [-1,1]
// derived from the seed string, using a splitmix64 stream.
func hashVec(seed string, out []float64) {
	h := fnv.New64a()
	h.Write([]byte(seed))
	x := h.Sum64()
	for i := range out {
		// splitmix64 step
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		out[i] = float64(z)/float64(math.MaxUint64)*2 - 1
	}
}

func addScaled(dst, src []float64, s float64) {
	for i := range dst {
		dst[i] += src[i] * s
	}
}

func normalize(v []float64) {
	n := 0.0
	for _, x := range v {
		n += x * x
	}
	if n == 0 {
		return
	}
	n = math.Sqrt(n)
	for i := range v {
		v[i] /= n
	}
}

// FastTextLike is the fastText stand-in: token vector = normalized sum of
// hashed character n-gram vectors (n = 3..5 plus the whole token), text
// vector = normalized average of token vectors.
type FastTextLike struct {
	// Dimension of the vectors; if zero, 64 is used (the real model uses
	// 300; lower dimensionality keeps experiments fast without changing
	// relative behaviour).
	Dimension int
	// Cache, when non-nil, memoizes per-token vectors across texts (the
	// same token hashes to the same vector regardless of context).
	Cache *VecCache
	// GramCache, when non-nil, memoizes the hashed character n-gram
	// vectors that token vectors sum: distinct tokens share most of
	// their 3..5-gram windows, so interning the per-gram vectors removes
	// the bulk of the hashing on a token-vector MISS. Values are
	// bit-identical with or without it (each gram still hashes through
	// hashVec exactly once). Must not be shared with the token Cache
	// (an interior gram can equal a whole token).
	GramCache *VecCache
}

// Name implements Model.
func (FastTextLike) Name() string { return "fasttext" }

// Dim implements Model.
func (m FastTextLike) Dim() int {
	if m.Dimension <= 0 {
		return 64
	}
	return m.Dimension
}

func (m FastTextLike) gramVec(gram string, buf []float64) []float64 {
	if m.GramCache == nil {
		hashVec(gram, buf)
		return buf
	}
	if v := m.GramCache.get(gram); v != nil {
		return v
	}
	v := make([]float64, len(buf))
	hashVec(gram, v)
	return m.GramCache.put(gram, v)
}

func (m FastTextLike) tokenVec(token string, buf []float64) []float64 {
	if v := m.Cache.get(token); v != nil {
		return v
	}
	d := m.Dim()
	v := make([]float64, d)
	r := []rune("<" + token + ">")
	count := 0
	for n := 3; n <= 5; n++ {
		for i := 0; i+n <= len(r); i++ {
			addScaled(v, m.gramVec(string(r[i:i+n]), buf), 1)
			count++
		}
	}
	hashVec("<word>"+token, buf)
	addScaled(v, buf, 1)
	normalize(v)
	return m.Cache.put(token, v)
}

// TokenVectors implements Model.
func (m FastTextLike) TokenVectors(text string) ([][]float64, []float64) {
	return m.TokenVectorsTokens(strsim.Tokenize(text))
}

// TokenVectorsTokens is TokenVectors over a pre-tokenized text
// (strsim.Tokenize order), the shared-tokenization fast path of
// BuildReps.
func (m FastTextLike) TokenVectorsTokens(tokens []string) ([][]float64, []float64) {
	if len(tokens) == 0 {
		return nil, nil
	}
	buf := make([]float64, m.Dim())
	counts := make(map[string]float64, len(tokens))
	for _, t := range tokens {
		counts[t]++
	}
	vecs := make([][]float64, 0, len(counts))
	ws := make([]float64, 0, len(counts))
	seen := make(map[string]bool, len(counts))
	for _, t := range tokens {
		if seen[t] {
			continue
		}
		seen[t] = true
		vecs = append(vecs, m.tokenVec(t, buf))
		ws = append(ws, counts[t]/float64(len(tokens)))
	}
	return vecs, ws
}

// EmbedTokens combines per-token vectors into the model's text
// embedding: the normalized weighted sum, the same reduction for both
// models. Callers derive it from the token vectors they already hold
// for Word Mover's similarity, so a text's tokens are embedded once.
// Empty text (no vectors) yields a zero vector.
func EmbedTokens(dim int, vecs [][]float64, ws []float64) []float64 {
	out := make([]float64, dim)
	for i, v := range vecs {
		addScaled(out, v, ws[i])
	}
	normalize(out)
	return out
}

// ContextualLike is the ALBERT stand-in: token vectors are hashed from
// the token together with its neighbors (window 1), so homonyms in
// different contexts receive different vectors; a shared bias vector is
// mixed into every token, which raises the similarity of arbitrary pairs
// the way the paper observes for transformer embeddings.
type ContextualLike struct {
	// Dimension of the vectors; if zero, 96 is used.
	Dimension int
	// Bias is the mixing weight of the shared component in [0,1); if
	// zero, 0.55 is used.
	Bias float64
	// Cache, when non-nil, memoizes per-(token, context-window) vectors
	// across texts.
	Cache *VecCache
	// TokenCache, when non-nil, memoizes the context-free token hash
	// component, which every context of the same token shares. Values
	// are bit-identical with or without it. Must not be shared with
	// Cache (keys are raw tokens in both).
	TokenCache *VecCache
}

// Name implements Model.
func (ContextualLike) Name() string { return "albert" }

// Dim implements Model.
func (m ContextualLike) Dim() int {
	if m.Dimension <= 0 {
		return 96
	}
	return m.Dimension
}

func (m ContextualLike) bias() float64 {
	if m.Bias <= 0 {
		return 0.55
	}
	return m.Bias
}

// sharedBias returns the model's shared bias component, memoized under a
// reserved cache key when a cache is attached.
func (m ContextualLike) sharedBias() []float64 {
	const key = "\x00<albert-shared-bias>"
	if v := m.Cache.get(key); v != nil {
		return v
	}
	bias := make([]float64, m.Dim())
	hashVec("<albert-shared-bias>", bias)
	normalize(bias)
	return m.Cache.put(key, bias)
}

// TokenVectors implements Model.
func (m ContextualLike) TokenVectors(text string) ([][]float64, []float64) {
	return m.TokenVectorsTokens(strsim.Tokenize(text))
}

// TokenVectorsTokens is TokenVectors over a pre-tokenized text.
func (m ContextualLike) TokenVectorsTokens(tokens []string) ([][]float64, []float64) {
	if len(tokens) == 0 {
		return nil, nil
	}
	d := m.Dim()
	bias := m.sharedBias()
	buf := make([]float64, d)
	vecs := make([][]float64, len(tokens))
	ws := make([]float64, len(tokens))
	for i, t := range tokens {
		prev, next := "<s>", "</s>"
		if i > 0 {
			prev = tokens[i-1]
		}
		if i < len(tokens)-1 {
			next = tokens[i+1]
		}
		ctx := prev + "|" + t + "|" + next
		if v := m.Cache.get(ctx); v != nil {
			vecs[i] = v
		} else {
			v := make([]float64, d)
			if m.TokenCache != nil {
				base := m.TokenCache.get(t)
				if base == nil {
					base = make([]float64, d)
					hashVec(t, base)
					base = m.TokenCache.put(t, base)
				}
				addScaled(v, base, 1)
			} else {
				hashVec(t, buf)
				addScaled(v, buf, 1)
			}
			hashVec(ctx, buf)
			addScaled(v, buf, 0.5) // contextual component
			normalize(v)
			addScaled(v, bias, m.bias()/(1-m.bias()))
			normalize(v)
			vecs[i] = m.Cache.put(ctx, v)
		}
		ws[i] = 1 / float64(len(tokens))
	}
	return vecs, ws
}

// NormSq returns Σ v[i]², accumulated in index order, so pairwise
// loops can precompute each entity's squared norm for CosineEuclidean.
func NormSq(v []float64) float64 {
	s := 0.0
	for i := range v {
		s += v[i] * v[i]
	}
	return s
}

// CosineEuclidean returns the cosine and Euclidean similarities of two
// embeddings in one pass over the dimensions, given their precomputed
// squared norms (NormSq). Cosine is mapped to [0,1] via (1+cos)/2, so
// graph weights satisfy the paper's [0,1] assumption even before
// min-max normalization, and is 0 when either vector is zero; Euclidean
// is 1/(1+d) for the distance d, as the paper's Appendix defines it.
// The unroll accumulates both sums in plain index order, so the values
// are bit-identical to the one-measure scalar loops that this package's
// tests keep as references.
func CosineEuclidean(a, b []float64, na, nb float64) (cos, euc float64) {
	b = b[:len(a)]
	dot, sq := 0.0, 0.0
	i := 0
	for ; i+2 <= len(a); i += 2 {
		dot += a[i] * b[i]
		d0 := a[i] - b[i]
		sq += d0 * d0
		dot += a[i+1] * b[i+1]
		d1 := a[i+1] - b[i+1]
		sq += d1 * d1
	}
	for ; i < len(a); i++ {
		dot += a[i] * b[i]
		d := a[i] - b[i]
		sq += d * d
	}
	if na != 0 && nb != 0 {
		cos = (1 + dot/math.Sqrt(na*nb)) / 2
	}
	return cos, 1 / (1 + math.Sqrt(sq))
}

// Measure names for the semantic similarities (Appendix B, category 4).
const (
	MeasureCosine     = "Cosine"
	MeasureEuclidean  = "Euclidean"
	MeasureWordMovers = "WordMovers"
)

// Measures returns the three semantic measure names in a stable order.
func Measures() []string {
	return []string{MeasureCosine, MeasureEuclidean, MeasureWordMovers}
}

// CachedModels returns the two semantic representation models the
// paper uses, each with fresh token-vector (and gram-/token-component)
// caches attached. Embeddings are unchanged (the models are pure);
// repeated tokens across a collection are hashed once instead of per
// entity, and distinct tokens share their hashed n-gram windows. The
// caches live as long as the returned models, so callers should scope
// them to one corpus build (or hold them in an embed.RepCache for
// cross-build reuse).
func CachedModels() []Model {
	return []Model{
		FastTextLike{Cache: NewVecCache(), GramCache: NewVecCache()},
		ContextualLike{Cache: NewVecCache(), TokenCache: NewVecCache()},
	}
}
