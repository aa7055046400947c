package solver

import (
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/rng"
)

// sparseOf compresses a dense test matrix into the form the solvers take.
func sparseOf(a *linalg.Matrix) *linalg.Sparse {
	return linalg.NewSparseRows(a.Rows, a.Cols, 1, func(i int, row []float64) { copy(row, a.Row(i)) })
}

// objective evaluates ‖A·w − s‖².
func objective(a *linalg.Matrix, w, s []float64) float64 {
	r := a.MulVec(w)
	o := 0.0
	for i := range r {
		d := r[i] - s[i]
		o += d * d
	}
	return o
}

func TestNNLSUnconstrainedCase(t *testing.T) {
	// Positive exact solution: NNLS must match plain least squares.
	a := linalg.FromRows([][]float64{{2, 0}, {0, 3}})
	x, err := NNLS(a, []float64{4, 9})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Fatalf("NNLS = %v, want [2 3]", x)
	}
}

func TestNNLSClampsNegative(t *testing.T) {
	// Unconstrained optimum has a negative coordinate; NNLS pins it to 0.
	a := linalg.FromRows([][]float64{{1, 1}, {1, -1}})
	// Unconstrained solution of A x = (0, 2) is x = (1, −1).
	x, err := NNLS(a, []float64{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if x[1] != 0 {
		t.Fatalf("NNLS x₂ = %v, want 0", x[1])
	}
	if x[0] < 0 {
		t.Fatalf("NNLS produced negative coordinate: %v", x)
	}
}

// Property: NNLS satisfies the KKT conditions — x ≥ 0, gradient ≥ −tol on
// the active set and ≈ 0 on the passive set.
func TestNNLSKKT(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 200; trial++ {
		m := 2 + r.IntN(15)
		n := 1 + r.IntN(10)
		a := linalg.NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = r.Float64()
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = 2*r.Float64() - 1
		}
		x, err := NNLS(a, b)
		if err != nil {
			t.Fatal(err)
		}
		res := linalg.Residual(a, x, b)
		// gradient of ½‖Ax−b‖² is Aᵀ(Ax−b).
		g := a.TMulVec(res)
		tol := 1e-6 * (1 + linalg.Norm2(b))
		for j := 0; j < n; j++ {
			if x[j] < -1e-12 {
				t.Fatalf("negative coordinate x[%d] = %v", j, x[j])
			}
			if x[j] > 1e-10 && math.Abs(g[j]) > tol {
				t.Fatalf("passive coordinate %d has gradient %v", j, g[j])
			}
			if x[j] <= 1e-10 && g[j] < -tol {
				t.Fatalf("active coordinate %d has negative gradient %v (descent direction exists)", j, g[j])
			}
		}
	}
}

// Property: NNLS is at least as good as any random nonnegative candidate.
func TestNNLSBeatsRandomFeasiblePoints(t *testing.T) {
	r := rng.New(23)
	for trial := 0; trial < 50; trial++ {
		m := 3 + r.IntN(10)
		n := 1 + r.IntN(6)
		a := linalg.NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = r.Float64()
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = r.Float64()
		}
		x, err := NNLS(a, b)
		if err != nil {
			t.Fatal(err)
		}
		opt := objective(a, x, b)
		for probe := 0; probe < 50; probe++ {
			y := make([]float64, n)
			for j := range y {
				y[j] = 2 * r.Float64()
			}
			if objective(a, y, b) < opt-1e-8 {
				t.Fatalf("random point beats NNLS: %v < %v", objective(a, y, b), opt)
			}
		}
	}
}

func TestProjectSimplexBasics(t *testing.T) {
	w := ProjectSimplex([]float64{0.2, 0.3, 0.5})
	for i, v := range []float64{0.2, 0.3, 0.5} {
		if math.Abs(w[i]-v) > 1e-12 {
			t.Fatalf("projection moved a simplex point: %v", w)
		}
	}
	w2 := ProjectSimplex([]float64{10, 0, 0})
	if math.Abs(w2[0]-1) > 1e-12 || w2[1] != 0 || w2[2] != 0 {
		t.Fatalf("projection of dominant coordinate = %v", w2)
	}
}

// Properties of simplex projection: feasibility, idempotence, and
// optimality (no feasible point is closer to the input).
func TestProjectSimplexProperties(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.IntN(12)
		v := make([]float64, n)
		for i := range v {
			v[i] = 6*r.Float64() - 3
		}
		w := ProjectSimplex(v)
		sum := 0.0
		for _, x := range w {
			if x < 0 {
				t.Fatalf("negative projection coordinate %v", x)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("projection sums to %v", sum)
		}
		// Idempotence.
		w2 := ProjectSimplex(w)
		for i := range w {
			if math.Abs(w[i]-w2[i]) > 1e-9 {
				t.Fatalf("projection not idempotent at %d", i)
			}
		}
		// Optimality against random feasible candidates.
		dist := distSq(v, w)
		for probe := 0; probe < 30; probe++ {
			u := randSimplex(r, n)
			if distSq(v, u) < dist-1e-9 {
				t.Fatalf("feasible point closer than projection")
			}
		}
	}
}

func distSq(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func randSimplex(r *rng.RNG, n int) []float64 {
	u := make([]float64, n)
	sum := 0.0
	for i := range u {
		u[i] = r.ExpFloat64()
		sum += u[i]
	}
	for i := range u {
		u[i] /= sum
	}
	return u
}

func TestSimplexWeightsRecoversExactDistribution(t *testing.T) {
	// Three buckets, queries that pin the weights exactly.
	// Query 1 covers bucket 0 fully: s = w0 = 0.5.
	// Query 2 covers bucket 1 fully: s = w1 = 0.3.
	// Query 3 covers all: s = 1.
	a := linalg.FromRows([][]float64{
		{1, 0, 0},
		{0, 1, 0},
		{1, 1, 1},
	})
	s := []float64{0.5, 0.3, 1}
	w, err := SimplexWeights(sparseOf(a), s)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 0.3, 0.2}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 1e-6 {
			t.Fatalf("weights = %v, want %v", w, want)
		}
	}
}

func TestSimplexWeightsAlwaysFeasible(t *testing.T) {
	r := rng.New(47)
	for trial := 0; trial < 100; trial++ {
		m := 1 + r.IntN(20)
		n := 1 + r.IntN(15)
		a := linalg.NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = r.Float64()
		}
		s := make([]float64, m)
		for i := range s {
			s[i] = r.Float64()
		}
		w, err := SimplexWeights(sparseOf(a), s)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, v := range w {
			if v < -1e-12 || v > 1+1e-9 {
				t.Fatalf("weight out of [0,1]: %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("weights sum to %v", sum)
		}
	}
}

func TestSimplexPGDMatchesNNLSOnSmallProblems(t *testing.T) {
	r := rng.New(53)
	for trial := 0; trial < 30; trial++ {
		m := 5 + r.IntN(15)
		n := 2 + r.IntN(8)
		a := linalg.NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = r.Float64()
		}
		s := make([]float64, m)
		for i := range s {
			s[i] = r.Float64()
		}
		wNNLS, err := SimplexWeights(sparseOf(a), s)
		if err != nil {
			t.Fatal(err)
		}
		wPGD := SimplexPGD(sparseOf(a), s, 3000)
		oN := objective(a, wNNLS, s)
		oP := objective(a, wPGD, s)
		if oP > oN+1e-4*(1+oN) {
			t.Fatalf("PGD objective %v much worse than NNLS %v", oP, oN)
		}
	}
}

func TestWeightsWithMethods(t *testing.T) {
	a := linalg.FromRows([][]float64{{1, 0}, {0, 1}})
	s := []float64{0.7, 0.3}
	for _, method := range []Method{MethodAuto, MethodNNLS, MethodPGD} {
		w, err := WeightsWith(method, sparseOf(a), s)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(w[0]-0.7) > 1e-4 || math.Abs(w[1]-0.3) > 1e-4 {
			t.Fatalf("method %v: weights = %v", method, w)
		}
	}
}

func TestNormalizeFallsBackToUniform(t *testing.T) {
	w := []float64{0, 0, 0, 0}
	normalize(w)
	for _, v := range w {
		if math.Abs(v-0.25) > 1e-15 {
			t.Fatalf("normalize zero vector = %v", w)
		}
	}
}
