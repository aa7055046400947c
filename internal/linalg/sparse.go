package linalg

// Sparse is a read-only compressed view of a Matrix, stored in both
// CSR (row-major) and CSC (column-major) form. Design matrices are the
// motivating use: a range query intersects only the buckets near it, so
// the Equation 6/7 matrices are typically well under half dense, and
// FISTA (solver.SimplexPGDStats) spends almost all its time in A·x and
// Aᵀ·x products over them.
//
// Most stored entries are exactly 1: a bucket wholly inside a query
// (Equation 6), or a point inside it (Equation 7, where every entry is).
// Each row and each column therefore keeps its exact-1 entries as bare
// indices, ahead of its (index, value) entries, and a product adds x
// itself for them. At the benchmark's training size (2,000 queries,
// 1,996 buckets, 92% of the nonzeros exactly 1) that is about 40% of the
// bytes a product reads with every entry stored as a pair. The bits do
// not change: 1·x is exactly x, fused or not, and each entry of a row or
// column updates a different output, so every output receives the same
// additions in the same order as with the uniform layout.
//
// The dual storage lets each product pick the traversal that exploits
// vector sparsity too:
//
//   - MulVec (A·x) walks CSC columns, skipping every column whose x[j]
//     is zero;
//   - TMulVec (Aᵀ·x) walks CSR rows, skipping rows with x[i] == 0, in
//     exactly the dense kernel's summation order.
type Sparse struct {
	Rows, Cols int
	// CSR: row i's exact-1 entries are the columns ci1[rp1[i]:rp1[i+1]],
	// its other entries (ci[k], cv[k]) for k in [rp[i], rp[i+1]).
	rp1, ci1 []int32
	rp, ci   []int32
	cv       []float64
	// CSC: column j's exact-1 entries are the rows ri1[cp1[j]:cp1[j+1]],
	// its other entries (ri[k], rv[k]) for k in [cp[j], cp[j+1]).
	cp1, ri1 []int32
	cp, ri   []int32
	rv       []float64
}

// isOneEqual reports whether v is exactly 1, the entries Sparse stores as
// bare indices.
func isOneEqual(v float64) bool { return v == 1 }

// NewSparse compresses a into CSR+CSC form. The input is not retained.
func NewSparse(a *Matrix) *Sparse {
	m, n := a.Rows, a.Cols
	ones, others := 0, 0
	for _, v := range a.Data {
		switch {
		case v == 0:
		case isOneEqual(v):
			ones++
		default:
			others++
		}
	}
	s := &Sparse{
		Rows: m, Cols: n,
		rp1: make([]int32, m+1), ci1: make([]int32, 0, ones),
		rp: make([]int32, m+1), ci: make([]int32, 0, others), cv: make([]float64, 0, others),
		cp1: make([]int32, n+1), ri1: make([]int32, ones),
		cp: make([]int32, n+1), ri: make([]int32, others), rv: make([]float64, others),
	}
	// CSR pass (and per-column counts for the CSC pass).
	colOnes := make([]int32, n)
	colOthers := make([]int32, n)
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		for j, v := range row {
			switch {
			case v == 0:
			case isOneEqual(v):
				s.ci1 = append(s.ci1, int32(j))
				colOnes[j]++
			default:
				s.ci = append(s.ci, int32(j))
				s.cv = append(s.cv, v)
				colOthers[j]++
			}
		}
		s.rp1[i+1] = int32(len(s.ci1))
		s.rp[i+1] = int32(len(s.ci))
	}
	// CSC pass: prefix-sum the counts, then scatter rows in ascending-i
	// order so each column's entries are sorted by row.
	for j := 0; j < n; j++ {
		s.cp1[j+1] = s.cp1[j] + colOnes[j]
		s.cp[j+1] = s.cp[j] + colOthers[j]
	}
	copy(colOnes, s.cp1[:n])
	copy(colOthers, s.cp[:n])
	for i := 0; i < m; i++ {
		for _, j := range s.ci1[s.rp1[i]:s.rp1[i+1]] {
			s.ri1[colOnes[j]] = int32(i)
			colOnes[j]++
		}
		for k := s.rp[i]; k < s.rp[i+1]; k++ {
			j := s.ci[k]
			at := colOthers[j]
			s.ri[at] = int32(i)
			s.rv[at] = s.cv[k]
			colOthers[j] = at + 1
		}
	}
	return s
}

// NNZ returns the number of stored (non-zero) entries.
func (s *Sparse) NNZ() int { return len(s.ci1) + len(s.cv) }

// Density returns NNZ / (Rows·Cols).
func (s *Sparse) Density() float64 {
	if s.Rows == 0 || s.Cols == 0 {
		return 0
	}
	return float64(s.NNZ()) / (float64(s.Rows) * float64(s.Cols))
}

// MulVecInto computes y = A·x, zeroing y first. Columns with x[j] == 0
// are skipped entirely. Accumulation is column-major, so individual sums
// may differ from the dense kernel by rounding (never by magnitude); the
// order is fixed, so results are deterministic.
func (s *Sparse) MulVecInto(y, x []float64) {
	if len(x) != s.Cols || len(y) != s.Rows {
		panic("linalg: Sparse.MulVecInto shape mismatch")
	}
	for i := range y {
		y[i] = 0
	}
	for j := 0; j < s.Cols; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for _, i := range s.ri1[s.cp1[j]:s.cp1[j+1]] {
			y[i] += xj
		}
		ri := s.ri[s.cp[j]:s.cp[j+1]]
		rv := s.rv[s.cp[j]:s.cp[j+1]:s.cp[j+1]]
		for k, i := range ri {
			y[i] += rv[k] * xj
		}
	}
}

// MulVec returns A·x as a new vector.
func (s *Sparse) MulVec(x []float64) []float64 {
	y := make([]float64, s.Rows)
	s.MulVecInto(y, x)
	return y
}

// TMulVecInto computes y = Aᵀ·x, zeroing y first, in the dense kernel's
// row-major summation order (rows with x[i] == 0 are skipped, exactly as
// Matrix.TMulVec does).
func (s *Sparse) TMulVecInto(y, x []float64) {
	if len(x) != s.Rows || len(y) != s.Cols {
		panic("linalg: Sparse.TMulVecInto shape mismatch")
	}
	for j := range y {
		y[j] = 0
	}
	for i := 0; i < s.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for _, j := range s.ci1[s.rp1[i]:s.rp1[i+1]] {
			y[j] += xi
		}
		ci := s.ci[s.rp[i]:s.rp[i+1]]
		cv := s.cv[s.rp[i]:s.rp[i+1]:s.rp[i+1]]
		for k, j := range ci {
			y[j] += cv[k] * xi
		}
	}
}

// TMulVec returns Aᵀ·x as a new vector.
func (s *Sparse) TMulVec(x []float64) []float64 {
	y := make([]float64, s.Cols)
	s.TMulVecInto(y, x)
	return y
}
