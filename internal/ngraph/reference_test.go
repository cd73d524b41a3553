package ngraph

import "github.com/ccer-go/ccer/internal/vector"

// The per-measure references that TestAllSimsConsistent pins AllSims
// to, and the single-value constructor the tests build on; no
// production path calls them.

// FromValue builds the n-gram graph of a single textual value under the
// given mode: nodes are the value's n-grams and every pair of grams whose
// window distance is at most n is connected, with the edge weight counting
// co-occurrences.
func FromValue(vocab *Vocab, mode vector.Mode, value string) *Graph {
	return fromValueScratch(vocab, mode, value, &valueScratch{}).graph()
}

// Containment estimates the portion of common edges, ignoring weights:
// |Gi ∩ Gj| / min(|Gi|, |Gj|).
func Containment(a, b *Graph) float64 {
	if a.NumEdges() == 0 && b.NumEdges() == 0 {
		return 1
	}
	if a.NumEdges() == 0 || b.NumEdges() == 0 {
		return 0
	}
	n, _ := common(a, b)
	return float64(n) / float64(min2(a.NumEdges(), b.NumEdges()))
}

// Value extends containment with weights:
// Σ_{e∈Gi∩Gj} min(w)/max(w) / max(|Gi|,|Gj|).
func Value(a, b *Graph) float64 {
	if a.NumEdges() == 0 && b.NumEdges() == 0 {
		return 1
	}
	if a.NumEdges() == 0 || b.NumEdges() == 0 {
		return 0
	}
	_, ratio := common(a, b)
	return ratio / float64(max2(a.NumEdges(), b.NumEdges()))
}

// NormalizedValue mitigates size imbalance by dividing by the smaller
// graph: Σ_{e∈Gi∩Gj} min(w)/max(w) / min(|Gi|,|Gj|).
func NormalizedValue(a, b *Graph) float64 {
	if a.NumEdges() == 0 && b.NumEdges() == 0 {
		return 1
	}
	if a.NumEdges() == 0 || b.NumEdges() == 0 {
		return 0
	}
	_, ratio := common(a, b)
	return ratio / float64(min2(a.NumEdges(), b.NumEdges()))
}

// Overall is the average of containment, value and normalized value.
func Overall(a, b *Graph) float64 {
	return (Containment(a, b) + Value(a, b) + NormalizedValue(a, b)) / 3
}

// Sim computes the named graph similarity. It panics on an unknown
// measure name.
func Sim(measure string, a, b *Graph) float64 {
	switch measure {
	case MeasureContainment:
		return Containment(a, b)
	case MeasureValue:
		return Value(a, b)
	case MeasureNormalizedValue:
		return NormalizedValue(a, b)
	case MeasureOverall:
		return Overall(a, b)
	default:
		panic("ngraph: unknown measure " + measure)
	}
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}
