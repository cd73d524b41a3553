// Package stats provides the statistical machinery of the paper's
// analysis: descriptive statistics (mean, standard deviation, quartiles),
// Pearson correlation, the Friedman test over paired samples, and the
// post-hoc Nemenyi test with its critical distance — the basis of the
// paper's Figure 2 (and Figures 7-8) critical difference diagrams.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Descriptive summarizes a sample the way the paper's Table 8 does.
type Descriptive struct {
	N                    int
	Mean, Std            float64
	Min, Q1, Q2, Q3, Max float64
}

// Describe computes descriptive statistics. It returns a zero value for
// an empty sample. Std is the population standard deviation.
func Describe(xs []float64) Descriptive {
	if len(xs) == 0 {
		return Descriptive{}
	}
	d := Descriptive{N: len(xs)}
	for _, x := range xs {
		d.Mean += x
	}
	d.Mean /= float64(len(xs))
	for _, x := range xs {
		d.Std += (x - d.Mean) * (x - d.Mean)
	}
	d.Std = math.Sqrt(d.Std / float64(len(xs)))
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	d.Min, d.Max = sorted[0], sorted[len(sorted)-1]
	d.Q1 = Quantile(sorted, 0.25)
	d.Q2 = Quantile(sorted, 0.50)
	d.Q3 = Quantile(sorted, 0.75)
	return d
}

// Quantile returns the q-quantile of a sorted sample by linear
// interpolation.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// samples, or 0 if either sample is constant or empty.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Ranks assigns ranks 1..k to one observation row, giving tied values
// their average rank — the ranking used by the Friedman test. Lower
// values receive better (smaller) ranks when lowerIsBetter, which for
// F-measure comparisons should be false (higher F1 → rank 1).
func Ranks(row []float64, lowerIsBetter bool) []float64 {
	k := len(row)
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if lowerIsBetter {
			return row[idx[a]] < row[idx[b]]
		}
		return row[idx[a]] > row[idx[b]]
	})
	ranks := make([]float64, k)
	for pos := 0; pos < k; {
		end := pos
		for end+1 < k && row[idx[end+1]] == row[idx[pos]] {
			end++
		}
		avg := float64(pos+end)/2 + 1
		for i := pos; i <= end; i++ {
			ranks[idx[i]] = avg
		}
		pos = end + 1
	}
	return ranks
}

// FriedmanResult reports the Friedman test over N paired samples of k
// treatments.
type FriedmanResult struct {
	N, K      int
	MeanRanks []float64
	ChiSq     float64
	PValue    float64
}

// Friedman runs the Friedman test on a matrix with one row per sample
// (similarity graph) and one column per treatment (algorithm). Higher
// values are better (F-measure convention). It returns an error for
// degenerate input.
func Friedman(matrix [][]float64) (FriedmanResult, error) {
	n := len(matrix)
	if n == 0 {
		return FriedmanResult{}, fmt.Errorf("stats: empty matrix")
	}
	k := len(matrix[0])
	if k < 2 {
		return FriedmanResult{}, fmt.Errorf("stats: need at least two treatments, got %d", k)
	}
	sums := make([]float64, k)
	for _, row := range matrix {
		if len(row) != k {
			return FriedmanResult{}, fmt.Errorf("stats: ragged matrix")
		}
		for j, r := range Ranks(row, false) {
			sums[j] += r
		}
	}
	res := FriedmanResult{N: n, K: k, MeanRanks: make([]float64, k)}
	for j := range sums {
		res.MeanRanks[j] = sums[j] / float64(n)
	}
	// χ²_F = 12N/(k(k+1)) · Σ_j (R̄_j − (k+1)/2)²
	center := float64(k+1) / 2
	s := 0.0
	for _, r := range res.MeanRanks {
		s += (r - center) * (r - center)
	}
	res.ChiSq = 12 * float64(n) / (float64(k) * float64(k+1)) * s
	res.PValue = 1 - chiSquareCDF(res.ChiSq, float64(k-1))
	return res, nil
}

// nemenyiQ are the critical values q_0.05 of the studentized range
// statistic divided by sqrt(2), at infinite degrees of freedom, for
// k = 2..10 treatments (Demsar 2006, Table 5).
var nemenyiQ = map[int]float64{
	2: 1.960, 3: 2.343, 4: 2.569, 5: 2.728, 6: 2.850,
	7: 2.949, 8: 3.031, 9: 3.102, 10: 3.164,
}

// NemenyiCD returns the critical distance of the post-hoc Nemenyi test at
// α=0.05 for k treatments and n samples: CD = q_α · sqrt(k(k+1)/(6N)).
// For the paper's setting (k=8, N=739) this gives ≈0.37.
func NemenyiCD(k, n int) (float64, error) {
	q, ok := nemenyiQ[k]
	if !ok {
		return 0, fmt.Errorf("stats: no Nemenyi critical value for k=%d", k)
	}
	if n <= 0 {
		return 0, fmt.Errorf("stats: need n > 0, got %d", n)
	}
	return q * math.Sqrt(float64(k*(k+1))/(6*float64(n))), nil
}

// chiSquareCDF returns P(X <= x) for a chi-square distribution with df
// degrees of freedom, via the regularized lower incomplete gamma
// function.
func chiSquareCDF(x, df float64) float64 {
	if x <= 0 {
		return 0
	}
	return lowerGammaRegularized(df/2, x/2)
}

// lowerGammaRegularized computes P(a, x) using the series expansion for
// x < a+1 and the continued fraction for the complement otherwise
// (Numerical Recipes style).
func lowerGammaRegularized(a, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x < a+1 {
		return gammaSeries(a, x)
	}
	return 1 - gammaContinuedFraction(a, x)
}

func gammaSeries(a, x float64) float64 {
	const maxIter = 500
	const eps = 1e-14
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < maxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	lg, _ := math.Lgamma(a)
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

func gammaContinuedFraction(a, x float64) float64 {
	const maxIter = 500
	const eps = 1e-14
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	lg, _ := math.Lgamma(a)
	return math.Exp(-x+a*math.Log(x)-lg) * h
}
