package solver

import (
	"math"
	"sort"

	"repro/internal/linalg"
)

// ProjectSimplex projects v onto the probability simplex
// {w : w ≥ 0, Σw = 1} in Euclidean norm using the sort-based algorithm of
// Duchi et al. (2008). The input is not modified.
func ProjectSimplex(v []float64) []float64 {
	n := len(v)
	if n == 0 {
		return nil
	}
	w := make([]float64, n)
	projectSimplexInto(w, v, make([]float64, n))
	return w
}

// projectSimplexInto writes the simplex projection of v into dst using u
// as sort scratch (all length n); the iterative solvers call it once per
// iteration, so it must not allocate.
func projectSimplexInto(dst, v, u []float64) {
	n := len(v)
	copy(u, v)
	sort.Float64s(u)
	cum := 0.0
	rho := -1
	var theta float64
	for i := 0; i < n; i++ {
		ui := u[n-1-i] // descending traversal of the ascending sort
		cum += ui
		t := (cum - 1) / float64(i+1)
		if ui-t > 0 {
			rho = i
			theta = t
		}
	}
	if rho < 0 {
		// All mass at the largest coordinate (degenerate input).
		theta = u[n-1] - 1
	}
	for i, vi := range v {
		dst[i] = math.Max(0, vi-theta)
	}
	// Counteract floating-point drift.
	normalize(dst)
}

// SimplexPGD solves min ‖A·w − s‖² over the probability simplex with
// Nesterov-accelerated projected gradient (FISTA). It is the large-scale
// alternative to the Lawson–Hanson path: O(nnz) per iteration regardless
// of the active-set size, in linalg.Sparse's products, which have the
// dense kernels' bits at every size and density.
func SimplexPGD(a *linalg.Sparse, s []float64, iters int) []float64 {
	return SimplexPGDStats(a, s, iters, nil)
}

// SimplexPGDStats is SimplexPGD with an optional report of how many FISTA
// steps actually ran before the relative-improvement stop fired.
func SimplexPGDStats(a *linalg.Sparse, s []float64, iters int, st *Stats) []float64 {
	m, n := a.Rows, a.Cols
	if n == 0 {
		st.record("pgd", 0)
		return nil
	}
	// All per-iteration storage is allocated once and reused.
	ax := make([]float64, m)

	// Lipschitz constant of the gradient: 2·λmax(AᵀA), estimated by a
	// few power iterations.
	l := 2 * powerIterSq(a, 30)
	if l <= 0 {
		l = 1
	}
	step := 1 / l

	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	y := make([]float64, n)
	copy(y, w)
	g := make([]float64, n)
	cand := make([]float64, n)
	wNext := make([]float64, n)
	scratch := make([]float64, n)
	tPrev := 1.0
	objPrev := math.Inf(1)
	ran := 0
	for it := 0; it < iters; it++ {
		ran = it + 1
		// Gradient at y: 2Aᵀ(Ay − s).
		a.MulVecInto(ax, y)
		for i := range ax {
			ax[i] -= s[i]
		}
		a.TMulVecInto(g, ax)
		for i := range cand {
			cand[i] = y[i] - 2*step*g[i]
		}
		projectSimplexInto(wNext, cand, scratch)
		tNext := (1 + math.Sqrt(1+4*tPrev*tPrev)) / 2
		beta := (tPrev - 1) / tNext
		for i := range y {
			y[i] = wNext[i] + beta*(wNext[i]-w[i])
		}
		w, wNext = wNext, w
		tPrev = tNext
		// Cheap convergence check every 25 iterations. The stop rule is
		// a 1e-7 relative objective improvement per block — orders of
		// magnitude below the ~1e-2 RMS scale the trained models live
		// at, but loose enough to cut the tail of the iteration budget
		// once FISTA has flattened.
		if it%25 == 24 {
			a.MulVecInto(ax, w)
			obj := 0.0
			for i := range ax {
				d := ax[i] - s[i]
				obj += d * d
			}
			if objPrev-obj < 1e-7*(1+obj) {
				break
			}
			objPrev = obj
		}
	}
	st.record("pgd", ran)
	return w
}

// powerIterSq estimates λmax(AᵀA) = ‖A‖₂² by power iteration.
func powerIterSq(a *linalg.Sparse, iters int) float64 {
	m, n := a.Rows, a.Cols
	v := make([]float64, n)
	for i := range v {
		// Deterministic non-degenerate start vector.
		v[i] = 1 + float64(i%7)/7
	}
	u := make([]float64, m)
	w := make([]float64, n)
	lambda := 0.0
	for it := 0; it < iters; it++ {
		a.MulVecInto(u, v)
		a.TMulVecInto(w, u)
		norm := linalg.Norm2(w)
		if norm == 0 {
			return 0
		}
		lambda = linalg.Dot(v, w) / linalg.Dot(v, v)
		for i := range w {
			v[i] = w[i] / norm
		}
	}
	return lambda
}

// nnlsSizeLimit is the bucket-count threshold above which SimplexWeights
// switches from Lawson–Hanson NNLS (exact active set, cubic in the passive
// set) to accelerated projected gradient (linear per iteration).
const nnlsSizeLimit = 350

// pgdIterations is the iteration budget for the large-scale path.
const pgdIterations = 600

// Weights solves the weight-estimation program of Eq. 8 choosing the
// algorithm by problem size. Method selection can be forced with
// WeightsWith.
func Weights(a *linalg.Sparse, s []float64) ([]float64, error) {
	return WeightsWithStats(MethodAuto, a, s, nil)
}

// Method selects a weight-estimation algorithm.
type Method int

const (
	// MethodAuto picks NNLS for small bucket counts, PGD otherwise.
	MethodAuto Method = iota
	// MethodNNLS forces Lawson–Hanson with sum-to-one augmentation.
	MethodNNLS
	// MethodPGD forces accelerated projected gradient on the simplex.
	MethodPGD
)

// WeightsWith is Weights with an explicit method choice, used by the
// solver-ablation benchmarks.
func WeightsWith(method Method, a *linalg.Sparse, s []float64) ([]float64, error) {
	return WeightsWithStats(method, a, s, nil)
}

// WeightsWithStats is WeightsWith with an optional report of the resolved
// method and its iteration count (st may be nil).
func WeightsWithStats(method Method, a *linalg.Sparse, s []float64, st *Stats) ([]float64, error) {
	if method == MethodAuto {
		if a.Cols <= nnlsSizeLimit {
			method = MethodNNLS
		} else {
			method = MethodPGD
		}
	}
	switch method {
	case MethodNNLS:
		return SimplexWeightsStats(a, s, st)
	default:
		return SimplexPGDStats(a, s, pgdIterations, st), nil
	}
}
