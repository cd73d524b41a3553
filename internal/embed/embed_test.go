package embed

import (
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"github.com/ccer-go/ccer/internal/datagen"
)

func TestDeterminism(t *testing.T) {
	for _, m := range Models() {
		a := embedText(m, "entity resolution with graphs")
		b := embedText(m, "entity resolution with graphs")
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: embedding not deterministic at dim %d", m.Name(), i)
			}
		}
	}
}

func TestDimensions(t *testing.T) {
	if d := (FastTextLike{}).Dim(); d != 64 {
		t.Fatalf("fasttext default dim = %d, want 64", d)
	}
	if d := (ContextualLike{}).Dim(); d != 96 {
		t.Fatalf("albert default dim = %d, want 96", d)
	}
	if d := (FastTextLike{Dimension: 32}).Dim(); d != 32 {
		t.Fatalf("custom dim = %d, want 32", d)
	}
	for _, m := range Models() {
		if got := len(embedText(m, "hello world")); got != m.Dim() {
			t.Fatalf("%s: vector len %d != Dim %d", m.Name(), got, m.Dim())
		}
	}
}

func TestEmptyText(t *testing.T) {
	for _, m := range Models() {
		v := embedText(m, "")
		for _, x := range v {
			if x != 0 {
				t.Fatalf("%s: empty text embedding is non-zero", m.Name())
			}
		}
		vecs, ws := m.TokenVectors("")
		if vecs != nil || ws != nil {
			t.Fatalf("%s: empty text produced token vectors", m.Name())
		}
		if s := sim(m, MeasureCosine, "", "something"); s != 0 {
			t.Fatalf("%s/Cosine with empty text = %v, want 0", m.Name(), s)
		}
	}
}

func TestIdenticalTextsScoreHighest(t *testing.T) {
	texts := []string{
		"apple iphone 12 silver 128gb",
		"samsung galaxy s21 black",
		"introduction to database systems",
	}
	for _, m := range Models() {
		for _, meas := range embedMeasures {
			for _, a := range texts {
				self := sim(m, meas, a, a)
				if math.Abs(self-1) > 1e-9 {
					t.Fatalf("%s/%s self-sim(%q) = %v, want 1", m.Name(), meas, a, self)
				}
				for _, b := range texts {
					if a == b {
						continue
					}
					if s := sim(m, meas, a, b); s >= self {
						t.Fatalf("%s/%s: cross sim %v >= self sim %v", m.Name(), meas, s, self)
					}
				}
			}
		}
	}
}

// Morphologically close tokens must embed closer than unrelated tokens
// under the char-n-gram model (fastText's core property).
func TestFastTextMorphologicalCloseness(t *testing.T) {
	m := FastTextLike{}
	base := embedText(m, "resolution")
	typo := embedText(m, "resoluton")
	other := embedText(m, "zebra")
	if CosineSim(base, typo) <= CosineSim(base, other) {
		t.Fatalf("typo sim %v <= unrelated sim %v",
			CosineSim(base, typo), CosineSim(base, other))
	}
}

// The ALBERT stand-in must assign different vectors to the same token in
// different contexts.
func TestContextualHomonyms(t *testing.T) {
	m := ContextualLike{}
	river := embedText(m, "river bank water")
	money := embedText(m, "money bank account")
	if CosineSim(river, money) >= 1-1e-9 {
		t.Fatal("contextual model ignored context")
	}
}

// The shared bias must inflate the average pairwise similarity of the
// contextual model above the fastText-like model — the paper's stated
// reason semantic weights hurt all matching algorithms.
func TestContextualBiasInflatesSimilarity(t *testing.T) {
	texts := []string{
		"apple iphone silver", "garden hose reel", "graph matching paper",
		"chocolate cake recipe", "linux kernel module",
	}
	avg := func(m Model) float64 {
		s, n := 0.0, 0
		for i := range texts {
			for j := i + 1; j < len(texts); j++ {
				s += CosineSim(embedText(m, texts[i]), embedText(m, texts[j]))
				n++
			}
		}
		return s / float64(n)
	}
	ft, al := avg(FastTextLike{}), avg(ContextualLike{})
	if al <= ft {
		t.Fatalf("contextual avg sim %v <= fasttext avg sim %v", al, ft)
	}
	if al < 0.6 {
		t.Fatalf("contextual avg sim %v, want inflated (>= 0.6)", al)
	}
}

// All measures stay in [0,1] on arbitrary token soup.
func TestPropertySemanticRange(t *testing.T) {
	words := []string{"red", "apple", "pie", "york", "bank", "x9", "flux"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gen := func() string {
			n := rng.Intn(5) + 1
			parts := make([]string, n)
			for i := range parts {
				parts[i] = words[rng.Intn(len(words))]
			}
			return strings.Join(parts, " ")
		}
		a, b := gen(), gen()
		for _, m := range Models() {
			for _, meas := range embedMeasures {
				s := sim(m, meas, a, b)
				if s < 0 || s > 1+1e-9 || math.IsNaN(s) {
					return false
				}
				// Symmetry.
				if math.Abs(s-sim(m, meas, b, a)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Cached models must embed bit-identically to their uncached
// counterparts: the cache is a speed knob, never a semantic one.
func TestCachedModelsBitIdentical(t *testing.T) {
	texts := []string{
		"", "galaxy note 10 plus", "galaxy note 10", "entity resolution at scale",
		"galaxy galaxy galaxy", "μια ελληνική φράση",
	}
	plain := Models()
	cached := CachedModels()
	for k := range plain {
		for _, text := range texts {
			a := embedText(plain[k], text)
			b := embedText(cached[k], text)
			b2 := embedText(cached[k], text) // second call served from the cache
			if len(a) != len(b) || len(a) != len(b2) {
				t.Fatalf("%s: dimension mismatch", plain[k].Name())
			}
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) ||
					math.Float64bits(a[i]) != math.Float64bits(b2[i]) {
					t.Fatalf("%s: embedding of %q differs with cache at dim %d", plain[k].Name(), text, i)
				}
			}
			va, wa := plain[k].TokenVectors(text)
			vb, wb := cached[k].TokenVectors(text)
			if len(va) != len(vb) || len(wa) != len(wb) {
				t.Fatalf("%s: TokenVectors(%q) shape differs with cache", plain[k].Name(), text)
			}
			for i := range va {
				for d := range va[i] {
					if math.Float64bits(va[i][d]) != math.Float64bits(vb[i][d]) {
						t.Fatalf("%s: token vector %d of %q differs with cache", plain[k].Name(), i, text)
					}
				}
			}
		}
	}
}

// The fused pair kernel must be bit-identical to the standalone
// similarities, on a few short texts and on the golden task's (the D2
// task internal/simgraph's golden test generates from): its name texts
// (SB-SEM) and whole-entity texts (SA-SEM). The golden test's dense
// loop reads CosineEuclidean, so this is what pins it to the
// definitions.
func TestCosineEuclideanFused(t *testing.T) {
	spec, err := datagen.SpecByID("D2")
	if err != nil {
		t.Fatal(err)
	}
	task := spec.Generate(3, 0.03)
	short := []string{"galaxy note", "galaxy tab pro", "quantum flux", ""}
	scopes := [][2][]string{
		{short, short},
		{task.V1.AttrTexts("name"), task.V2.AttrTexts("name")},
		{task.V1.Texts(), task.V2.Texts()},
	}
	for _, m := range Models() {
		for _, sc := range scopes {
			bs := make([][]float64, len(sc[1]))
			for j, tb := range sc[1] {
				bs[j] = embedText(m, tb)
			}
			for _, ta := range sc[0] {
				a := embedText(m, ta)
				for j, b := range bs {
					cos, euc := CosineEuclidean(a, b, NormSq(a), NormSq(b))
					if math.Float64bits(cos) != math.Float64bits(CosineSim(a, b)) {
						t.Fatalf("%s: fused cosine differs for (%q,%q)", m.Name(), ta, sc[1][j])
					}
					if math.Float64bits(euc) != math.Float64bits(EuclideanSim(a, b)) {
						t.Fatalf("%s: fused euclidean differs for (%q,%q)", m.Name(), ta, sc[1][j])
					}
				}
			}
		}
	}
}

// TestBuildRepsMatchesPerEntityCalls pins BuildReps (with and without
// shared tokenization, with and without a RepCache) against per-entity
// embedText/TokenVectors.
func TestBuildRepsMatchesPerEntityCalls(t *testing.T) {
	texts := []string{"golden dragon bistro", "", "a", "harbor grill house", "!!!", "café 日本"}
	const maxTokens = 2
	for _, m := range CachedModels() {
		want := struct {
			emb [][]float64
			tv  [][][]float64
			tw  [][]float64
		}{}
		for _, txt := range texts {
			want.emb = append(want.emb, embedText(m, txt))
			v, w := m.TokenVectors(txt)
			if len(v) > maxTokens {
				v, w = v[:maxTokens], w[:maxTokens]
			}
			want.tv = append(want.tv, v)
			want.tw = append(want.tw, w)
		}
		cache := NewRepCache(4)
		for pass := 0; pass < 2; pass++ {
			for _, reps := range []*EntityReps{
				BuildReps(m, texts, nil, maxTokens),
				BuildReps(m, texts, TokenizeAll(texts), maxTokens),
				cache.Reps(m, texts, TokenizeAll(texts), maxTokens),
			} {
				for i := range texts {
					if len(reps.Emb[i]) != len(want.emb[i]) {
						t.Fatalf("%s: emb dim mismatch at %d", m.Name(), i)
					}
					for k := range want.emb[i] {
						if reps.Emb[i][k] != want.emb[i][k] {
							t.Fatalf("%s: emb[%d][%d] %v != %v", m.Name(), i, k, reps.Emb[i][k], want.emb[i][k])
						}
					}
					if reps.NormSq[i] != NormSq(want.emb[i]) {
						t.Fatalf("%s: normSq[%d]", m.Name(), i)
					}
					if len(reps.TV[i]) != len(want.tv[i]) || len(reps.TW[i]) != len(want.tw[i]) {
						t.Fatalf("%s: token vec count mismatch at %d", m.Name(), i)
					}
					for ti := range want.tv[i] {
						if reps.TW[i][ti] != want.tw[i][ti] {
							t.Fatalf("%s: tw[%d][%d]", m.Name(), i, ti)
						}
						for k := range want.tv[i][ti] {
							if reps.TV[i][ti][k] != want.tv[i][ti][k] {
								t.Fatalf("%s: tv[%d][%d][%d]", m.Name(), i, ti, k)
							}
						}
					}
				}
			}
		}
		hits, misses, _ := cache.Stats()
		if misses != 1 || hits != 1 {
			t.Fatalf("%s: cache hits/misses = %d/%d, want 1/1", m.Name(), hits, misses)
		}
	}
}

// TestRepCacheEviction: the cache stays within its entry bound and
// rebuilt entries are byte-identical.
func TestRepCacheEviction(t *testing.T) {
	cache := NewRepCache(2)
	m := cache.Models()[0]
	collections := [][]string{
		{"alpha beta"}, {"gamma delta"}, {"epsilon zeta"}, {"alpha beta"},
	}
	var first *EntityReps
	for i, texts := range collections {
		reps := cache.Reps(m, texts, nil, 6)
		if i == 0 {
			first = reps
		}
		if cache.Len() > 2 {
			t.Fatalf("cache grew to %d entries", cache.Len())
		}
	}
	// "alpha beta" was evicted and rebuilt: values identical.
	again := cache.Reps(m, collections[0], nil, 6)
	for k := range first.Emb[0] {
		if first.Emb[0][k] != again.Emb[0][k] {
			t.Fatal("rebuilt reps differ")
		}
	}
	_, _, evictions := cache.Stats()
	if evictions == 0 {
		t.Fatal("no evictions recorded")
	}
}

// TestNewRepCacheAllocatesLazily pins that the bounded vector caches
// grow with use: NewRepCache(16), the cache erserve's
// simgraph.NewRepCaches(2) builds, once reserved 2^19 map slots in each
// of four maps (about 175 MB) before its first request.
func TestNewRepCacheAllocatesLazily(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := NewRepCache(16)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("NewRepCache(16) allocated %d bytes, want under 1 MiB", got)
	}
}

// TestBoundedVecCacheEvicts drives put's eviction loop: after max+k
// puts the cache holds exactly max vectors, the latest among them.
func TestBoundedVecCacheEvicts(t *testing.T) {
	for _, max := range []int{1, 2, 7} {
		c := NewBoundedVecCache(max)
		for i := 0; i < max+5; i++ {
			key := strconv.Itoa(i)
			c.put(key, []float64{float64(i)})
			if n := len(c.m); n != min(i+1, max) {
				t.Fatalf("max %d: %d entries after %d puts", max, n, i+1)
			}
			if v := c.get(key); len(v) != 1 || v[0] != float64(i) {
				t.Fatalf("max %d: just-put key %q reads %v", max, key, v)
			}
		}
	}
	if c := NewBoundedVecCache(0); c.max != 1 {
		t.Fatalf("NewBoundedVecCache(0) bound %d, want 1", c.max)
	}
}
