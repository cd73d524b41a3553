package embed

import "math"

// The scalar references that TestCosineEuclideanFused pins
// CosineEuclidean to, and the helpers the tests build on; no production
// path calls them.

// Models returns the two semantic representation models the paper
// uses, without caches.
func Models() []Model {
	return []Model{FastTextLike{}, ContextualLike{}}
}

// embedText is the text embedding of m: EmbedTokens over the text's
// token vectors.
func embedText(m Model, text string) []float64 {
	vecs, ws := m.TokenVectors(text)
	return EmbedTokens(m.Dim(), vecs, ws)
}

// CosineSim returns the cosine similarity of two embeddings mapped to
// [0,1] via (1+cos)/2, so downstream graph weights satisfy the paper's
// [0,1] assumption even before min-max normalization. Zero vectors yield
// 0.
func CosineSim(a, b []float64) float64 {
	dot, na, nb := 0.0, 0.0, 0.0
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return (1 + dot/math.Sqrt(na*nb)) / 2
}

// EuclideanSim returns 1/(1+d) for the Euclidean distance d, as defined
// in the paper's Appendix.
func EuclideanSim(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return 1 / (1 + math.Sqrt(s))
}

// sim is the named embedding measure (cosine or Euclidean) of two
// texts under m. Word Mover's similarity is computed and pinned in
// internal/simgraph.
func sim(m Model, measure, a, b string) float64 {
	ea, eb := embedText(m, a), embedText(m, b)
	if measure == MeasureCosine {
		return CosineSim(ea, eb)
	}
	return EuclideanSim(ea, eb)
}

// embedMeasures are the measures sim computes.
var embedMeasures = []string{MeasureCosine, MeasureEuclidean}
