package linalg

import (
	"math"
	"testing"
)

// testRNG is a small deterministic generator for test matrices.
type testRNG uint64

func (r *testRNG) next() float64 {
	*r ^= *r << 13
	*r ^= *r >> 7
	*r ^= *r << 17
	return float64(*r%1000)/1000 - 0.5
}

func randMatrix(rows, cols int, sparsity float64, seed uint64) *Matrix {
	r := testRNG(seed)
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		v := r.next()
		if r.next() < sparsity-0.5 { // sparsity fraction of entries zeroed
			v = 0
		}
		m.Data[i] = v
	}
	return m
}

// mulNaive is the textbook i-j-k triple loop — the reference the
// cache-friendly i-k-j kernel must match.
func mulNaive(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func maxAbsDiff(x, y []float64) float64 {
	d := 0.0
	for i := range x {
		d = math.Max(d, math.Abs(x[i]-y[i]))
	}
	return d
}

func TestMulMatchesNaive(t *testing.T) {
	for _, dims := range [][3]int{{3, 4, 5}, {17, 9, 23}, {40, 40, 40}, {1, 7, 1}} {
		a := randMatrix(dims[0], dims[1], 0, 7)
		b := randMatrix(dims[1], dims[2], 0.3, 11)
		got := a.Mul(b)
		want := mulNaive(a, b)
		if d := maxAbsDiff(got.Data, want.Data); d > 1e-12 {
			t.Fatalf("dims %v: Mul differs from naive by %g", dims, d)
		}
	}
}

func TestGramMatchesTransposeMul(t *testing.T) {
	for _, dims := range [][2]int{{5, 3}, {30, 50}, {64, 17}, {200, 90}} {
		a := randMatrix(dims[0], dims[1], 0.5, 13)
		want := a.T().Mul(a)
		for _, workers := range []int{1, 2, 8} {
			got := Gram(a, workers)
			if d := maxAbsDiff(got.Data, want.Data); d != 0 {
				t.Fatalf("dims %v workers %d: Gram differs from AᵀA by %g", dims, workers, d)
			}
		}
	}
}

// TestGramDeterministicAcrossWorkers is the byte-identity contract the
// NNLS determinism guarantee rests on.
func TestGramDeterministicAcrossWorkers(t *testing.T) {
	a := randMatrix(120, 200, 0.4, 29)
	want := Gram(a, 1)
	for _, workers := range []int{2, 3, 16} {
		got := Gram(a, workers)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("workers=%d: Gram[%d] = %v, want %v", workers, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestMatVecParallelIdentical(t *testing.T) {
	a := randMatrix(150, 300, 0.4, 17)
	x := make([]float64, 300)
	xr := make([]float64, 150)
	r := testRNG(23)
	for i := range x {
		x[i] = r.next()
	}
	for i := range xr {
		xr[i] = r.next()
	}
	wantY := a.MulVecWith(x, 1)
	wantT := a.TMulVecWith(xr, 1)
	for _, workers := range []int{2, 4, 32} {
		if d := maxAbsDiff(a.MulVecWith(x, workers), wantY); d != 0 {
			t.Fatalf("MulVecWith workers=%d differs by %g", workers, d)
		}
		if d := maxAbsDiff(a.TMulVecWith(xr, workers), wantT); d != 0 {
			t.Fatalf("TMulVecWith workers=%d differs by %g", workers, d)
		}
	}
}

// densityMatrix is a rows×cols matrix whose entries are nonzero with
// probability density, half of them exact 1s and half fractions, except
// row 1 and column 2, which hold no zero. Its zeros are +0 or −0 at
// random.
func densityMatrix(rows, cols int, density float64, seed uint64) *Matrix {
	r := testRNG(seed)
	a := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			switch {
			case i != 1 && j != 2 && r.next()+0.5 >= density:
				if r.next() < 0 {
					a.Set(i, j, math.Copysign(0, -1))
				}
			case r.next() < 0:
				a.Set(i, j, 1)
			default:
				a.Set(i, j, r.next()+0.5+1e-3)
			}
		}
	}
	return a
}

// signedVector holds 0, −0, −1 and fractions of either sign from 1e-3 to
// 1e2.
func signedVector(n int, r *testRNG) []float64 {
	x := make([]float64, n)
	for i := range x {
		switch u := r.next() + 0.5; {
		case u < 0.1:
		case u < 0.2:
			x[i] = math.Copysign(0, -1)
		case u < 0.3:
			x[i] = -1
		default:
			x[i] = (r.next() + 0.5 + 1e-3) * math.Pow(10, float64(int((u-0.3)*10)-3))
			if r.next() < 0 {
				x[i] = -x[i]
			}
		}
	}
	return x
}

// TestSparseMatchesDense: both sparse products have the bits of the dense
// kernels, serial and parallel, at densities from 0.1 to 1. A zero entry
// the sparse kernels skip would add ±0 to a dense sum that starts at +0
// and is never −0, and every other product is added in the same order.
func TestSparseMatchesDense(t *testing.T) {
	for _, shape := range [][2]int{{6, 7}, {40, 90}, {130, 60}, {500, 700}} {
		rows, cols := shape[0], shape[1]
		for _, density := range []float64{0.1, 0.4, 0.75, 0.9, 1} {
			a := densityMatrix(rows, cols, density, uint64(rows*cols)+uint64(density*10))
			s := sparseOf(a)
			r := testRNG(uint64(rows + cols))
			for trial := 0; trial < 3; trial++ {
				x, xr := signedVector(cols, &r), signedVector(rows, &r)
				y, yt := s.MulVec(x), s.TMulVec(xr)
				for _, workers := range []int{1, 2, 7} {
					if !sameBits(y, a.MulVecWith(x, workers)) {
						t.Fatalf("%dx%d density %v trial %d: Sparse.MulVec differs from the dense kernel on %d workers",
							rows, cols, density, trial, workers)
					}
					if !sameBits(yt, a.TMulVecWith(xr, workers)) {
						t.Fatalf("%dx%d density %v trial %d: Sparse.TMulVec differs from the dense kernel on %d workers",
							rows, cols, density, trial, workers)
					}
				}
			}
		}
	}
}

func TestCholeskyFactorReuse(t *testing.T) {
	// SPD matrix via Gram of a well-conditioned tall matrix.
	a := randMatrix(60, 12, 0, 51)
	for j := 0; j < 12; j++ {
		a.Set(j, j, a.At(j, j)+3) // boost the diagonal for conditioning
	}
	g := Gram(a, 1)
	c, err := NewCholesky(g)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 12)
	r := testRNG(53)
	for i := range b {
		b[i] = r.next()
	}
	x := c.Solve(b)
	if d := maxAbsDiff(g.MulVec(x), b); d > 1e-8 {
		t.Fatalf("Cholesky solve residual %g", d)
	}
	// A second solve against the same factorization must work too.
	x2 := c.Solve(g.MulVec(x))
	if d := maxAbsDiff(x2, x); d > 1e-8 {
		t.Fatalf("Cholesky re-solve drift %g", d)
	}
}
