package linalg

import (
	"math"

	"repro/internal/parallel"
)

// Sparse is a read-only compressed matrix, stored in both CSR
// (row-major) and CSC (column-major) form. Design matrices are the
// motivating use: a range query intersects only the buckets near it, so
// the Equation 6/7 matrices are typically well under half dense. They are
// built straight into this form, row by row (NewSparseRows), and FISTA
// (solver.SimplexPGDStats) spends almost all its time in A·x and Aᵀ·x
// products over them.
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

// sparseRow is one row's stored entries: idx holds its exact-1 columns,
// then the columns of its other entries, whose values are val.
type sparseRow struct {
	idx []int32
	val []float64
}

// ones returns the row's exact-1 columns.
func (r sparseRow) ones() []int32 { return r.idx[:len(r.idx)-len(r.val)] }

// others returns the columns of the row's other entries.
func (r sparseRow) others() []int32 { return r.idx[len(r.idx)-len(r.val):] }

// NewSparseRows builds an m×n Sparse row by row, without ever holding the
// m×n dense matrix: fill(i, row) writes row i into row, a zeroed scratch
// row of n entries. Each row is compressed as it is filled: zeros (±0) are
// skipped, exact 1s kept as bare indices, anything else as an (index,
// value) pair; the scratch row is zeroed again for the next row.
//
// Rows fan out over up to `workers` goroutines (0 = the pool default) in
// contiguous blocks, each with its own scratch row, so fill must be safe
// to call concurrently for different rows. Every row lands in its own
// slot, and the rows are concatenated in order at their exact size, so
// the result does not depend on the worker count. It panics when the
// matrix has more stored entries than an int32 index can address.
func NewSparseRows(m, n, workers int, fill func(i int, row []float64)) *Sparse {
	if m < 0 || n < 0 {
		panic("linalg: negative matrix dimension")
	}
	rows := make([]sparseRow, m)
	// One block when serial; else four per worker, claimed one at a
	// time, so a block of costly rows cannot hold the others back.
	blocks := min(m, 1)
	if w := parallel.Workers(workers); w > 1 {
		blocks = min(m, 4*w)
	}
	parallel.ForEachChunk(blocks, workers, 1, func(b int) {
		scratch := make([]float64, n)
		for i := b * m / blocks; i < (b+1)*m/blocks; i++ {
			fill(i, scratch)
			rows[i] = compressRow(scratch)
		}
	})
	ones, others := 0, 0
	for _, r := range rows {
		ones += len(r.ones())
		others += len(r.val)
	}
	checkInt32Index(n, ones+others)
	s := &Sparse{
		Rows: m, Cols: n,
		rp1: make([]int32, m+1), ci1: make([]int32, 0, ones),
		rp: make([]int32, m+1), ci: make([]int32, 0, others), cv: make([]float64, 0, others),
	}
	for i, r := range rows {
		s.ci1 = append(s.ci1, r.ones()...)
		s.ci = append(s.ci, r.others()...)
		s.cv = append(s.cv, r.val...)
		s.rp1[i+1] = int32(len(s.ci1))
		s.rp[i+1] = int32(len(s.ci))
	}
	s.buildCSC()
	return s
}

// checkInt32Index panics unless every column index and every count of
// stored entries fits the int32 indices Sparse keeps.
func checkInt32Index(cols, nnz int) {
	if cols > math.MaxInt32 || nnz > math.MaxInt32 {
		panic("linalg: sparse matrix too large for int32 indices")
	}
}

// compressRow returns row's stored entries at their exact size and zeroes
// row: one pass counts them, a second copies them out.
func compressRow(row []float64) sparseRow {
	ones, others := 0, 0
	for _, v := range row {
		switch {
		case v == 0:
		case isOneEqual(v):
			ones++
		default:
			others++
		}
	}
	r := sparseRow{idx: make([]int32, ones+others), val: make([]float64, others)}
	o, k := 0, ones
	for j, v := range row {
		switch {
		case v == 0:
		case isOneEqual(v):
			r.idx[o] = int32(j)
			o++
		default:
			r.idx[k] = int32(j)
			r.val[k-ones] = v
			k++
		}
	}
	clear(row)
	return r
}

// buildCSC derives the CSC arrays from the CSR ones by a counting
// scatter: count each column's entries into its pointer slot, prefix-sum
// the counts, then scatter rows in ascending-i order, so each column's
// entries are sorted by row, advancing column j's pointer as its cursor.
// The cursors end one column ahead, so the pointers shift back by one.
func (s *Sparse) buildCSC() {
	n := s.Cols
	s.cp1, s.ri1 = make([]int32, n+1), make([]int32, len(s.ci1))
	s.cp, s.ri, s.rv = make([]int32, n+1), make([]int32, len(s.ci)), make([]float64, len(s.ci))
	for _, j := range s.ci1 {
		s.cp1[j+1]++
	}
	for _, j := range s.ci {
		s.cp[j+1]++
	}
	for j := 0; j < n; j++ {
		s.cp1[j+1] += s.cp1[j]
		s.cp[j+1] += s.cp[j]
	}
	for i := 0; i < s.Rows; i++ {
		for _, j := range s.ci1[s.rp1[i]:s.rp1[i+1]] {
			s.ri1[s.cp1[j]] = int32(i)
			s.cp1[j]++
		}
		for k := s.rp[i]; k < s.rp[i+1]; k++ {
			j := s.ci[k]
			at := s.cp[j]
			s.ri[at] = int32(i)
			s.rv[at] = s.cv[k]
			s.cp[j] = at + 1
		}
	}
	copy(s.cp1[1:], s.cp1[:n])
	copy(s.cp[1:], s.cp[:n])
	s.cp1[0], s.cp[0] = 0, 0
}

// ScatterRow writes row i's stored entries into dst (length Cols) and
// leaves dst's other entries as they are.
func (s *Sparse) ScatterRow(i int, dst []float64) {
	if len(dst) != s.Cols {
		panic("linalg: Sparse.ScatterRow length mismatch")
	}
	for _, j := range s.ci1[s.rp1[i]:s.rp1[i+1]] {
		dst[j] = 1
	}
	for k := s.rp[i]; k < s.rp[i+1]; k++ {
		dst[s.ci[k]] = s.cv[k]
	}
}

// Dense expands s into a dense Matrix, for the algorithms that work on
// one: Lawson–Hanson NNLS, the LP simplex and QuickSel's exact QP.
func (s *Sparse) Dense() *Matrix {
	a := NewMatrix(s.Rows, s.Cols)
	for i := 0; i < s.Rows; i++ {
		s.ScatterRow(i, a.Row(i))
	}
	return a
}

// NNZ returns the number of stored (non-zero) entries.
func (s *Sparse) NNZ() int { return len(s.ci1) + len(s.cv) }

// MulVecInto computes y = A·x, zeroing y first. Columns with x[j] == 0
// are skipped entirely. For finite x the result has the dense kernel's
// bits (Matrix.MulVec): each y[i] receives its row's products in
// ascending column order, as the dense dot product adds them, and a
// skipped zero entry would add ±0 to a sum that starts at +0, is never
// −0, and so does not change.
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
// Matrix.TMulVec does), so for finite x it has that kernel's bits.
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
