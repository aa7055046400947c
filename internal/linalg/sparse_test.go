package linalg

import (
	"math"
	"testing"
)

// refSparse is Sparse as it was before exact-1 entries became bare
// indices: every nonzero an (index, value) pair. Its kernels are the
// reference the current ones must match bit for bit.
type refSparse struct {
	rows, cols int
	rp, ci     []int32
	cv         []float64
	cp, ri     []int32
	rv         []float64
}

func newRefSparse(a *Matrix) *refSparse {
	m, n := a.Rows, a.Cols
	s := &refSparse{rows: m, cols: n, rp: make([]int32, m+1), cp: make([]int32, n+1)}
	colCount := make([]int32, n)
	for i := 0; i < m; i++ {
		for j, v := range a.Data[i*n : (i+1)*n] {
			if v == 0 {
				continue
			}
			s.ci = append(s.ci, int32(j))
			s.cv = append(s.cv, v)
			colCount[j]++
		}
		s.rp[i+1] = int32(len(s.ci))
	}
	for j := 0; j < n; j++ {
		s.cp[j+1] = s.cp[j] + colCount[j]
	}
	s.ri = make([]int32, len(s.ci))
	s.rv = make([]float64, len(s.ci))
	fill := make([]int32, n)
	copy(fill, s.cp[:n])
	for i := 0; i < m; i++ {
		for k := s.rp[i]; k < s.rp[i+1]; k++ {
			j := s.ci[k]
			s.ri[fill[j]] = int32(i)
			s.rv[fill[j]] = s.cv[k]
			fill[j]++
		}
	}
	return s
}

func (s *refSparse) mulVec(x []float64) []float64 {
	y := make([]float64, s.rows)
	for j := 0; j < s.cols; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for k := s.cp[j]; k < s.cp[j+1]; k++ {
			y[s.ri[k]] += s.rv[k] * xj
		}
	}
	return y
}

func (s *refSparse) tMulVec(x []float64) []float64 {
	y := make([]float64, s.cols)
	for i := 0; i < s.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for k := s.rp[i]; k < s.rp[i+1]; k++ {
			y[s.ci[k]] += s.cv[k] * xi
		}
	}
	return y
}

// designLike is a matrix of exact 1s, fractions and zeros, as a design
// matrix holds, with an all-1 row (1) and an all-1 column (3) beside rows
// and columns of fractions (2 and 4).
func designLike(rows, cols int, seed uint64) *Matrix {
	r := testRNG(seed)
	a := NewMatrix(rows, cols)
	for i := range a.Data {
		switch u := r.next() + 0.5; {
		case u < 0.4:
		case u < 0.85:
			a.Data[i] = 1
		default:
			a.Data[i] = u - 0.85 + 1e-3
		}
	}
	for j := 0; j < cols; j++ {
		a.Set(2, j, 0.25)
	}
	for i := 0; i < rows; i++ {
		a.Set(i, 3, 1)
		a.Set(i, 4, 0.5)
	}
	for j := 0; j < cols; j++ {
		a.Set(1, j, 1)
	}
	return a
}

func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// TestSparseMatchesReferenceBits: the layout that stores exact 1s as bare
// indices changes no bit of either product, for x vectors with zeros,
// negatives and fractions, on design-like matrices of several shapes.
func TestSparseMatchesReferenceBits(t *testing.T) {
	for _, shape := range [][2]int{{6, 7}, {40, 90}, {130, 60}, {300, 300}} {
		rows, cols := shape[0], shape[1]
		a := designLike(rows, cols, uint64(rows*cols))
		s, ref := NewSparse(a), newRefSparse(a)
		if s.NNZ() != len(ref.cv) {
			t.Fatalf("%dx%d: NNZ %d, want %d", rows, cols, s.NNZ(), len(ref.cv))
		}
		r := testRNG(uint64(rows + cols))
		for trial := 0; trial < 4; trial++ {
			x := make([]float64, cols)
			xr := make([]float64, rows)
			for _, v := range [][]float64{x, xr} {
				for i := range v {
					switch k := trial + i; {
					case k%5 == 0:
					case k%7 == 0:
						v[i] = -1
					default:
						v[i] = r.next() * math.Pow(10, float64(trial))
					}
				}
			}
			if got, want := s.MulVec(x), ref.mulVec(x); !sameBits(got, want) {
				t.Fatalf("%dx%d trial %d: MulVec differs from the reference kernel", rows, cols, trial)
			}
			if got, want := s.TMulVec(xr), ref.tMulVec(xr); !sameBits(got, want) {
				t.Fatalf("%dx%d trial %d: TMulVec differs from the reference kernel", rows, cols, trial)
			}
		}
	}
}
