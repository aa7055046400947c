package main

import (
	"math"
	"sort"
)

// pct returns the nearest-rank p-quantile (0 < p ≤ 1) of xs: an actual
// sample, never an interpolation, so a p99 over n samples always has
// n − ceil(0.99n) samples above it. It sorts a copy; NaN when xs is empty.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the nearest-rank median.
func median(xs []float64) float64 { return pct(xs, 0.5) }

// zipf draws ranks 0..n-1 with P(k) ∝ 1/(k+1)^s by inverting a
// precomputed CDF.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	total := 0.0
	for k := range cdf {
		total += 1 / math.Pow(float64(k+1), s)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	return &zipf{cdf: cdf}
}

// rank maps a uniform u ∈ [0,1) to a rank.
func (z *zipf) rank(u float64) int {
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}
