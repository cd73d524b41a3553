package vector

// CacheTFIDF returns the memoized TF-IDF vectors of both collections,
// building them on first use. Kept for callers that want the raw
// vectors; AllSims reads the cache internally. The returned slices
// alias the Space's cache and must not be modified — mutating them
// would corrupt every subsequent AllSims/TFIDF on this Space.
func (s *Space) CacheTFIDF() (c1, c2 []Vec) {
	s.ensureCache()
	return s.tfidf1, s.tfidf2
}

// AllSims computes all six bag measures for the pair (i, j) in a single
// merge-join over the two sparse vectors, returning them in Measures()
// order:
//
//   - ARCS sums log2 / log(DF1(k)·DF2(k)) over the grams k the two
//     entities share, so the rarer the shared grams, the higher the
//     score. Frequencies are floored at 2 (a gram seen once would zero
//     the log), and the sum is divided by the smaller vector's size and
//     capped at 1. An empty vector scores 0.
//   - CosineTF and CosineTFIDF are the cosine of the TF and of the
//     TF-IDF vectors, 0 for a zero vector.
//   - Jaccard is set Jaccard over the non-zero dimensions.
//   - GeneralizedJaccardTF and GeneralizedJaccardTFIDF are
//     Σmin(w)/Σmax(w) over the TF and the TF-IDF weights.
//
// The Jaccard measures score two empty vectors 1. The TF-IDF vectors
// and all four norms come from the per-entity cache, so the pair cost
// is exactly one merge join.
func (s *Space) AllSims(i, j int) [6]float64 {
	s.ensureCache()
	a, b := s.docs1[i], s.docs2[j]
	wa, wb := s.tfidf1[i], s.tfidf2[j] // same IDs as a and b, different weights

	var (
		arcs           float64
		dotTF, dotIDF  float64
		inter          int
		minTF, maxTF   float64
		minIDF, maxIDF float64
	)
	ii, jj := 0, 0
	for ii < len(a.IDs) || jj < len(b.IDs) {
		switch {
		case jj >= len(b.IDs) || (ii < len(a.IDs) && a.IDs[ii] < b.IDs[jj]):
			maxTF += a.Ws[ii]
			maxIDF += wa.Ws[ii]
			ii++
		case ii >= len(a.IDs) || a.IDs[ii] > b.IDs[jj]:
			maxTF += b.Ws[jj]
			maxIDF += wb.Ws[jj]
			jj++
		default:
			// Branchy min/max instead of math.Min/Max: the weights are
			// finite, and even in the ±0 corner the chosen operand sums
			// to the identical accumulator value, so the measures stay
			// bit-identical while skipping the calls.
			inter++
			x, y := a.Ws[ii], b.Ws[jj]
			dotTF += x * y
			if x < y {
				minTF += x
				maxTF += y
			} else {
				minTF += y
				maxTF += x
			}
			x, y = wa.Ws[ii], wb.Ws[jj]
			dotIDF += x * y
			if x < y {
				minIDF += x
				maxIDF += y
			} else {
				minIDF += y
				maxIDF += x
			}
			arcs += s.arcsW[a.IDs[ii]]
			ii++
			jj++
		}
	}

	var out [6]float64
	if a.Len() > 0 && b.Len() > 0 {
		arcs /= float64(min2(a.Len(), b.Len()))
		if arcs > 1 {
			arcs = 1
		}
		out[0] = arcs
	}
	if na, nb := s.tfNorm1[i], s.tfNorm2[j]; na > 0 && nb > 0 {
		out[1] = dotTF / (na * nb)
	}
	if na, nb := s.wNorm1[i], s.wNorm2[j]; na > 0 && nb > 0 {
		out[2] = dotIDF / (na * nb)
	}
	if union := a.Len() + b.Len() - inter; union > 0 {
		out[3] = float64(inter) / float64(union)
	} else {
		out[3] = 1
	}
	if maxTF > 0 {
		out[4] = minTF / maxTF
	} else {
		out[4] = 1
	}
	if maxIDF > 0 {
		out[5] = minIDF / maxIDF
	} else {
		out[5] = 1
	}
	return out
}
