package vector

import "math"

// The per-measure references that TestAllSimsConsistent pins AllSims
// to, and the helpers the tests build on; no production path calls
// them.

// NewSpace builds the space from the schema-agnostic texts of the two
// collections (one string per entity).
func NewSpace(mode Mode, texts1, texts2 []string) *Space {
	return newSpace(mode, texts1, texts2, nil, nil)
}

// Dot returns the dot product of two sparse vectors via merge join.
func Dot(a, b Vec) float64 {
	i, j, s := 0, 0, 0.0
	for i < len(a.IDs) && j < len(b.IDs) {
		switch {
		case a.IDs[i] < b.IDs[j]:
			i++
		case a.IDs[i] > b.IDs[j]:
			j++
		default:
			s += a.Ws[i] * b.Ws[j]
			i++
			j++
		}
	}
	return s
}

// Cosine returns the cosine similarity of two sparse vectors.
func Cosine(a, b Vec) float64 {
	na, nb := a.Norm(), b.Norm()
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// JaccardSet returns set Jaccard over the non-zero dimensions.
func JaccardSet(a, b Vec) float64 {
	if len(a.IDs) == 0 && len(b.IDs) == 0 {
		return 1
	}
	i, j, inter := 0, 0, 0
	for i < len(a.IDs) && j < len(b.IDs) {
		switch {
		case a.IDs[i] < b.IDs[j]:
			i++
		case a.IDs[i] > b.IDs[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	union := len(a.IDs) + len(b.IDs) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// GeneralizedJaccard returns Σmin(w)/Σmax(w) over the weighted
// dimensions.
func GeneralizedJaccard(a, b Vec) float64 {
	i, j := 0, 0
	minSum, maxSum := 0.0, 0.0
	for i < len(a.IDs) || j < len(b.IDs) {
		switch {
		case j >= len(b.IDs) || (i < len(a.IDs) && a.IDs[i] < b.IDs[j]):
			maxSum += a.Ws[i]
			i++
		case i >= len(a.IDs) || a.IDs[i] > b.IDs[j]:
			maxSum += b.Ws[j]
			j++
		default:
			minSum += math.Min(a.Ws[i], b.Ws[j])
			maxSum += math.Max(a.Ws[i], b.Ws[j])
			i++
			j++
		}
	}
	if maxSum == 0 {
		return 1
	}
	return minSum / maxSum
}

// ARCS sums log2 / log(DF1(k)·DF2(k)) over the grams shared by entity i
// of collection 1 and entity j of collection 2: the rarer the shared
// grams, the higher the similarity. Grams that appear only once in a
// collection would zero the log, so frequencies are floored at 2, and the
// result is capped at 1 after scaling by the smaller vector size, keeping
// scores in [0,1] before the pipeline's min-max normalization.
func (s *Space) ARCS(i, j int) float64 {
	a, b := s.docs1[i], s.docs2[j]
	if a.Len() == 0 || b.Len() == 0 {
		return 0
	}
	s.ensureCache()
	ii, jj, sum := 0, 0, 0.0
	for ii < len(a.IDs) && jj < len(b.IDs) {
		switch {
		case a.IDs[ii] < b.IDs[jj]:
			ii++
		case a.IDs[ii] > b.IDs[jj]:
			jj++
		default:
			sum += s.arcsW[a.IDs[ii]]
			ii++
			jj++
		}
	}
	sim := sum / float64(min2(a.Len(), b.Len()))
	if sim > 1 {
		sim = 1
	}
	return sim
}

// Sim computes the named measure between entity i of collection 1 and
// entity j of collection 2, using the memoized per-entity TF-IDF vectors
// and norms (values are bit-identical to recomputing them per pair). It
// panics on an unknown measure name, which indicates a programming error
// in the caller's configuration.
func (s *Space) Sim(measure string, i, j int) float64 {
	s.ensureCache()
	switch measure {
	case MeasureARCS:
		return s.ARCS(i, j)
	case MeasureCosineTF:
		return cosineNormed(s.docs1[i], s.docs2[j], s.tfNorm1[i], s.tfNorm2[j])
	case MeasureCosineTFIDF:
		return cosineNormed(s.tfidf1[i], s.tfidf2[j], s.wNorm1[i], s.wNorm2[j])
	case MeasureJaccard:
		return JaccardSet(s.docs1[i], s.docs2[j])
	case MeasureGenJacTF:
		return GeneralizedJaccard(s.docs1[i], s.docs2[j])
	case MeasureGenJacTFIDF:
		return GeneralizedJaccard(s.tfidf1[i], s.tfidf2[j])
	default:
		panic("vector: unknown measure " + measure)
	}
}

// cosineNormed is Cosine with the norms precomputed.
func cosineNormed(a, b Vec, na, nb float64) float64 {
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// CandidatePairs returns all (i, j) pairs that share at least one gram,
// via the inverted index over collection 1. Pairs that share nothing
// have similarity zero under every bag measure, so this enumerates
// exactly the graph's potential edges. Pairs come back grouped by j with
// i ascending; deduplication uses a reusable bitset instead of a
// per-call hash set. It is the one-shot convenience over Candidates,
// which per-row kernels (internal/simgraph) call directly to reuse the
// bitset and emit rows in place.
func (s *Space) CandidatePairs() [][2]int32 {
	bits := make([]uint64, (len(s.docs1)+63)/64)
	var buf []int32
	var pairs [][2]int32
	for j := range s.docs2 {
		buf = s.Candidates(j, bits, buf)
		for _, i := range buf {
			pairs = append(pairs, [2]int32{i, int32(j)})
		}
	}
	return pairs
}
