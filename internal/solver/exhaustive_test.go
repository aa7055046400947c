package solver

import (
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/rng"
)

// gridSimplexMin brute-forces min ‖A·w − s‖² over the probability simplex
// by enumerating a fine barycentric grid — the ground truth the solvers are
// checked against on small instances.
func gridSimplexMin(a *linalg.Matrix, s []float64, steps int) float64 {
	n := a.Cols
	best := math.Inf(1)
	w := make([]float64, n)
	var rec func(dim, left int)
	rec = func(dim, left int) {
		if dim == n-1 {
			w[dim] = float64(left) / float64(steps)
			if o := objective(a, w, s); o < best {
				best = o
			}
			return
		}
		for k := 0; k <= left; k++ {
			w[dim] = float64(k) / float64(steps)
			rec(dim+1, left-k)
		}
	}
	if n == 1 {
		w[0] = 1
		return objective(a, w, s)
	}
	rec(0, steps)
	return best
}

// The constrained solvers reach (essentially) the global simplex optimum
// found by exhaustive grid search on small random problems.
func TestSolversMatchExhaustiveGrid(t *testing.T) {
	r := rng.New(4099)
	for trial := 0; trial < 40; trial++ {
		m := 2 + r.IntN(6)
		n := 1 + r.IntN(4) // keep the grid enumeration tractable
		a := linalg.NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = r.Float64()
		}
		s := make([]float64, m)
		for i := range s {
			s[i] = r.Float64()
		}
		ref := gridSimplexMin(a, s, 60)

		wN, err := SimplexWeights(sparseOf(a), s)
		if err != nil {
			t.Fatal(err)
		}
		if o := objective(a, wN, s); o > ref+2e-3 {
			t.Fatalf("trial %d: NNLS objective %v above grid optimum %v", trial, o, ref)
		}
		wP := SimplexPGD(sparseOf(a), s, 4000)
		if o := objective(a, wP, s); o > ref+2e-3 {
			t.Fatalf("trial %d: PGD objective %v above grid optimum %v", trial, o, ref)
		}
	}
}

// The auto path (Weights) picks PGD above the size threshold and still
// produces simplex-feasible, competitive weights at scale.
func TestWeightsLargeScalePath(t *testing.T) {
	r := rng.New(71)
	m, n := 60, nnlsSizeLimit+50
	a := linalg.NewMatrix(m, n)
	for i := range a.Data {
		if r.Float64() < 0.3 {
			a.Data[i] = r.Float64()
		}
	}
	s := make([]float64, m)
	for i := range s {
		s[i] = r.Float64() * 0.5
	}
	w, err := Weights(sparseOf(a), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != n {
		t.Fatalf("weight length %d", len(w))
	}
	sum := 0.0
	for _, v := range w {
		if v < -1e-12 {
			t.Fatalf("negative weight %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("weights sum to %v", sum)
	}
	// Must beat the uniform distribution.
	u := make([]float64, n)
	for i := range u {
		u[i] = 1 / float64(n)
	}
	if objective(a, w, s) > objective(a, u, s)+1e-9 {
		t.Fatalf("solved weights worse than uniform: %v vs %v",
			objective(a, w, s), objective(a, u, s))
	}
}

// Power iteration underestimates nothing catastrophically: the returned
// λmax bounds the Rayleigh quotient of random probes.
func TestPowerIterationDominatesProbes(t *testing.T) {
	r := rng.New(83)
	for trial := 0; trial < 30; trial++ {
		m, n := 4+r.IntN(10), 2+r.IntN(8)
		a := linalg.NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = 2*r.Float64() - 1
		}
		lam := powerIterSq(sparseOf(a), 100)
		for probe := 0; probe < 20; probe++ {
			v := make([]float64, n)
			for i := range v {
				v[i] = 2*r.Float64() - 1
			}
			av := a.MulVec(v)
			rq := linalg.Dot(av, av) / linalg.Dot(v, v)
			if rq > lam*(1+1e-6)+1e-9 {
				t.Fatalf("probe Rayleigh quotient %v exceeds power-iteration λ %v", rq, lam)
			}
		}
	}
}
