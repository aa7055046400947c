// Package linalg provides the linear-algebra kernel used by the
// weight-estimation solvers: dense matrices in row-major layout,
// Householder QR least squares, Cholesky factorization, and triangular
// solves, plus Sparse, the CSR+CSC form design matrices are built in
// (sparse.go). It is deliberately small — just what FISTA, Lawson–Hanson
// NNLS, KKT systems, and the simplex LP solver require — but numerically
// careful (column pivoting is unnecessary for our well-scaled systems;
// Householder reflections are).
package linalg

import (
	"fmt"
	"math"

	"repro/internal/parallel"
)

// matvecParallelThreshold is the element count above which the dense
// matrix–vector kernels fan out across the worker pool. Below it the
// goroutine handoff costs more than the arithmetic.
const matvecParallelThreshold = 1 << 16

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, Data[i*Cols+j] = A[i][j]
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns A[i][j].
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns A[i][j] = v.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// MulVec returns A·x. Large products fan out across the worker pool
// (each y[i] is one row's dot product, so the parallel result is
// byte-identical to the serial one).
func (m *Matrix) MulVec(x []float64) []float64 {
	return m.MulVecWith(x, autoWorkers(m.Rows*m.Cols))
}

// MulVecWith is MulVec with an explicit worker count (0 = auto).
func (m *Matrix) MulVecWith(x []float64, workers int) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec shape mismatch %dx%d · %d", m.Rows, m.Cols, len(x)))
	}
	y := make([]float64, m.Rows)
	parallel.ForEach(m.Rows, workers, func(i int) {
		row := m.Row(i)
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	})
	return y
}

// TMulVec returns Aᵀ·x without forming the transpose. Large products
// fan out by contiguous column stripes: each worker owns an output range
// y[lo:hi] and scans every row's [lo:hi) segment with i ascending, so
// every worker count produces identical bytes.
func (m *Matrix) TMulVec(x []float64) []float64 {
	return m.TMulVecWith(x, autoWorkers(m.Rows*m.Cols))
}

// TMulVecWith is TMulVec with an explicit worker count (0 = auto).
func (m *Matrix) TMulVecWith(x []float64, workers int) []float64 {
	if len(x) != m.Rows {
		panic("linalg: TMulVec shape mismatch")
	}
	n := m.Cols
	y := make([]float64, n)
	workers = parallel.Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		m.tMulVecStripe(y, x, 0, n)
		return y
	}
	stripe := (n + workers - 1) / workers
	parallel.ForEachChunk(workers, workers, 1, func(w int) {
		lo := w * stripe
		hi := lo + stripe
		if hi > n {
			hi = n
		}
		if lo < hi {
			m.tMulVecStripe(y, x, lo, hi)
		}
	})
	return y
}

// tMulVecStripe accumulates y[lo:hi] += Σᵢ x[i]·A[i][lo:hi].
func (m *Matrix) tMulVecStripe(y, x []float64, lo, hi int) {
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols+lo : i*m.Cols+hi]
		ys := y[lo:hi]
		for j, v := range row {
			ys[j] += v * xi
		}
	}
}

// autoWorkers picks the auto-parallelism degree for a kernel touching
// `elems` matrix elements: serial below the threshold, the shared pool
// above it.
func autoWorkers(elems int) int {
	if elems < matvecParallelThreshold {
		return 1
	}
	return parallel.Workers(0)
}

// Mul returns A·B. The serial core is the cache-friendly i-k-j order
// (C's row i accumulates scaled rows of B, so all three matrices stream
// row-major); large products additionally fan out across rows of C,
// which preserves bytes because each output row has a single writer.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic("linalg: Mul shape mismatch")
	}
	c := NewMatrix(m.Rows, b.Cols)
	workers := autoWorkers(m.Rows * b.Cols)
	parallel.ForEach(m.Rows, workers, func(i int) {
		arow := m.Row(i)
		crow := c.Row(i)
		for k, aik := range arow {
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bkj := range brow {
				crow[j] += aik * bkj
			}
		}
	})
	return c
}

// Dot returns xᵀy.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("linalg: Dot length mismatch")
	}
	s := 0.0
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// Norm2 returns ‖x‖₂.
func Norm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// AXPY computes y += a·x in place.
func AXPY(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: AXPY length mismatch")
	}
	for i := range x {
		y[i] += a * x[i]
	}
}

// Residual returns A·x − b as a new vector.
func Residual(a *Matrix, x, b []float64) []float64 {
	r := a.MulVec(x)
	for i := range r {
		r[i] -= b[i]
	}
	return r
}
