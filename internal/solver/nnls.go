// Package solver implements the constrained optimization routines behind
// the weight-estimation phase (Section 3.1, Eq. 8 of the paper):
//
//	minimize   Σᵢ (s_D(Rᵢ) − sᵢ)²  =  ‖A·w − s‖²
//	subject to Σⱼ wⱼ = 1,  0 ≤ wⱼ ≤ 1,
//
// where A[i][j] = vol(Bⱼ ∩ Rᵢ)/vol(Bⱼ) for histograms and the 0/1
// membership indicator for discrete distributions.
//
// Like the paper's released code (which calls scipy.optimize.nnls), the
// primary solver is Lawson–Hanson non-negative least squares with the
// sum-to-one constraint enforced by a strongly weighted augmentation row;
// the upper bound wⱼ ≤ 1 is then implied. A projected-gradient solver over
// the probability simplex is provided as an ablation alternative, and an
// L∞-objective trainer (Section 4.6) lives in linf.go on top of the LP
// simplex in internal/lp.
package solver

import (
	"errors"
	"math"

	"repro/internal/linalg"
)

// ErrMaxIterations is returned when an iterative solver fails to converge
// within its iteration budget.
var ErrMaxIterations = errors.New("solver: iteration budget exhausted")

// Stats reports what a weight-estimation call actually did — which
// algorithm ran and how many (outer) iterations it took. The learners
// surface it through obs.TrainStats so per-query adaptation cost is
// visible in seltrain/selbench output and the last retrain on /statz. A nil
// *Stats is ignored everywhere, so uninstrumented callers pay nothing.
type Stats struct {
	// Method is the algorithm that ran: "nnls", "pgd", or "exact_qp".
	Method string
	// Iterations counts outer iterations: active-set changes for NNLS,
	// FISTA steps for PGD.
	Iterations int
}

func (s *Stats) record(method string, iterations int) {
	if s == nil {
		return
	}
	s.Method = method
	s.Iterations = iterations
}

// NNLS solves min ‖A·x − b‖₂ subject to x ≥ 0 with the Lawson–Hanson
// active-set algorithm. It returns the solution vector; KKT optimality
// (within tolerance) is property-tested.
//
// The inner solves run on the normal equations: the Gram matrix G = AᵀA
// and c = Aᵀb are assembled once (by the blocked parallel kernel in
// internal/linalg), and every active-set change then works on a small
// submatrix of G via Cholesky — instead of re-touching all of A with a
// fresh QR per iteration, which made the solver the dominant cost of
// every training sweep.
func NNLS(a *linalg.Matrix, b []float64) ([]float64, error) {
	return NNLSStats(a, b, nil)
}

// NNLSStats is NNLS with an optional iteration-count report.
func NNLSStats(a *linalg.Matrix, b []float64, st *Stats) ([]float64, error) {
	m, n := a.Rows, a.Cols
	if len(b) != m {
		panic("solver: NNLS shape mismatch")
	}
	g := linalg.Gram(a, 0)
	c := a.TMulVec(b)

	x := make([]float64, n)
	passive := make([]bool, n) // the set P in Lawson–Hanson
	// w = Aᵀ(b − A·x) = c − G·x is the negative gradient; at x = 0 it
	// is just c.
	w := make([]float64, n)
	copy(w, c)

	tol := 1e-10 * (1 + linalg.Norm2(b))
	maxOuter := 3 * n
	if maxOuter < 30 {
		maxOuter = 30
	}
	for outer := 0; outer < maxOuter; outer++ {
		// Find the most violated dual coordinate among the active set.
		best := -1
		bestW := tol
		for j := 0; j < n; j++ {
			if !passive[j] && w[j] > bestW {
				bestW = w[j]
				best = j
			}
		}
		if best < 0 {
			st.record("nnls", outer)
			return x, nil // KKT satisfied
		}
		passive[best] = true
		for {
			// Solve the unconstrained LS restricted to the passive set.
			z, err := solvePassive(a, g, c, b, passive)
			if err != nil {
				return nil, err
			}
			// Check feasibility of the passive solution.
			minZ := math.Inf(1)
			for j := 0; j < n; j++ {
				if passive[j] && z[j] < minZ {
					minZ = z[j]
				}
			}
			if minZ > 0 {
				copy(x, z)
				break
			}
			// Step toward z until the first passive variable hits zero.
			alpha := math.Inf(1)
			for j := 0; j < n; j++ {
				if passive[j] && z[j] <= 0 {
					if denom := x[j] - z[j]; denom > 0 {
						alpha = math.Min(alpha, x[j]/denom)
					}
				}
			}
			if math.IsInf(alpha, 1) {
				alpha = 0
			}
			for j := 0; j < n; j++ {
				if passive[j] {
					x[j] += alpha * (z[j] - x[j])
					if x[j] <= 1e-14 {
						x[j] = 0
						passive[j] = false
					}
				}
			}
			// If everything left the passive set, re-enter outer loop.
			any := false
			for j := 0; j < n; j++ {
				if passive[j] {
					any = true
					break
				}
			}
			if !any {
				break
			}
		}
		// Refresh the gradient w = c − G·x, accumulating over the
		// support of x (the passive set is small compared to n).
		copy(w, c)
		for j, xj := range x {
			if xj != 0 {
				linalg.AXPY(-xj, g.Row(j), w)
			}
		}
	}
	// Non-convergence is extremely rare; return the current feasible
	// iterate rather than failing the training run.
	st.record("nnls", maxOuter)
	return x, nil
}

// solvePassive solves the least-squares problem restricted to the columns
// in the passive set, returning a full-length vector with zeros elsewhere.
// The fast path solves the normal equations on the passive submatrix of
// the precomputed Gram matrix (O(p³) instead of O(m·p²), without touching
// A at all), with one iterative-refinement step to claw back the accuracy
// the squared condition number costs. A rank-deficient passive set falls
// back to dense QR on the original columns.
func solvePassive(a, g *linalg.Matrix, c, b []float64, passive []bool) ([]float64, error) {
	n := a.Cols
	cols := make([]int, 0, n)
	for j := 0; j < n; j++ {
		if passive[j] {
			cols = append(cols, j)
		}
	}
	p := len(cols)
	z := make([]float64, n)
	if p == 0 {
		return z, nil
	}
	gp := linalg.NewMatrix(p, p)
	cp := make([]float64, p)
	for ki, j := range cols {
		gj := g.Row(j)
		gpRow := gp.Row(ki)
		for kj, jj := range cols {
			gpRow[kj] = gj[jj]
		}
		cp[ki] = c[j]
	}
	chol, err := linalg.NewCholesky(gp)
	if err != nil {
		return solvePassiveQR(a, b, passive)
	}
	zs := chol.Solve(cp)
	// One refinement step against the same factorization: r = cp − Gp·z,
	// z += Gp⁻¹r.
	r := gp.MulVec(zs)
	for i := range r {
		r[i] = cp[i] - r[i]
	}
	linalg.AXPY(1, chol.Solve(r), zs)
	for ki, j := range cols {
		z[j] = zs[ki]
	}
	return z, nil
}

// solvePassiveQR is the original dense path: materialize the passive
// columns and run Householder least squares. It remains both the
// rank-deficiency fallback and the reference implementation for the
// solver ablation tests.
func solvePassiveQR(a *linalg.Matrix, b []float64, passive []bool) ([]float64, error) {
	n := a.Cols
	cols := make([]int, 0, n)
	for j := 0; j < n; j++ {
		if passive[j] {
			cols = append(cols, j)
		}
	}
	sub := linalg.NewMatrix(a.Rows, len(cols))
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		srow := sub.Row(i)
		for k, j := range cols {
			srow[k] = row[j]
		}
	}
	zs, err := linalg.LeastSquares(sub, b)
	if err != nil {
		return nil, err
	}
	z := make([]float64, n)
	for k, j := range cols {
		z[j] = zs[k]
	}
	return z, nil
}

// SimplexWeights solves Eq. 8: min ‖A·w − s‖² subject to w on the
// probability simplex. The sum-to-one constraint is enforced by appending
// the strongly weighted row ρ·1ᵀw = ρ to the NNLS system — the exact
// construction used with scipy's nnls in the paper's code — followed by an
// exact renormalization of any residual drift.
func SimplexWeights(a *linalg.Matrix, s []float64) ([]float64, error) {
	return SimplexWeightsStats(a, s, nil)
}

// SimplexWeightsStats is SimplexWeights with an optional solver report.
func SimplexWeightsStats(a *linalg.Matrix, s []float64, st *Stats) ([]float64, error) {
	m, n := a.Rows, a.Cols
	if n == 0 {
		return nil, errors.New("solver: no buckets")
	}
	// Scale ρ to dominate the data rows without destroying conditioning.
	maxAbs := 0.0
	for _, v := range a.Data {
		maxAbs = math.Max(maxAbs, math.Abs(v))
	}
	rho := 100 * math.Max(maxAbs, 1) * math.Sqrt(float64(m)+1)
	aug := linalg.NewMatrix(m+1, n)
	copy(aug.Data, a.Data)
	lastRow := aug.Row(m)
	for j := range lastRow {
		lastRow[j] = rho
	}
	rhs := make([]float64, m+1)
	copy(rhs, s)
	rhs[m] = rho
	w, err := NNLSStats(aug, rhs, st)
	if err != nil {
		return nil, err
	}
	normalize(w)
	return w, nil
}

// normalize rescales a non-negative vector to sum to one; if the vector is
// (numerically) zero it falls back to the uniform distribution.
func normalize(w []float64) {
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	if sum <= 1e-300 {
		u := 1.0 / float64(len(w))
		for i := range w {
			w[i] = u
		}
		return
	}
	inv := 1 / sum
	for i := range w {
		w[i] *= inv
	}
}
