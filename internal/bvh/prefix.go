package bvh

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// maxCellsPerBucket bounds a tree's table: a tree gets one only while its
// grid, and the cells its nonzero-weight buckets cover in all, stay within
// this many cells per bucket. Both counts are checked before any
// grid-sized allocation, so a tree the table does not fit costs only the
// corner scan.
const maxCellsPerBucket = 4

// prefix2 is a 2-D tree's prefix-mass table. Equation 6's histogram has
// constant density on every cell of the grid its nonzero-weight buckets'
// corners draw, so its CDF F(x,y) — the mass below x and below y — is
// bilinear on each cell and exact from its values at the cell's corners.
// A box then holds F(x₂,y₂) − F(x₂,y₁) − F(x₁,y₂) + F(x₁,y₁): the
// prefix-sum cube of Ho et al. (SIGMOD 1997) with bilinear interpolation
// inside a cell.
//
// The table is a pure function of the buckets and weights, computed for
// every tree a constructor returns and never patched, so the same buckets
// and weights always get the same bits. mass is nil when the tree has no
// table: it is not 2-D, a nonzero-weight bucket has no finite positive
// inverse volume (a point mass), every weight is zero, or the grid or the
// covered cells exceed maxCellsPerBucket·m.
type prefix2 struct {
	xs, ys []float64 // grid lines, ascending and distinct
	mass   []float64 // F(xs[i], ys[j]) at i·len(ys)+j
}

// newPrefix2 computes t's table from its bucket corners, weights and
// inverse volumes, visiting the buckets in id order.
func newPrefix2(t *Tree) prefix2 {
	m := len(t.weights)
	if t.dim != 2 || m == 0 {
		return prefix2{}
	}
	nonzero := 0
	for j, w := range t.weights {
		if w == 0 {
			continue
		}
		if iv := t.invVols[j]; !(iv > 0 && iv <= math.MaxFloat64) {
			return prefix2{}
		}
		nonzero++
	}
	if nonzero == 0 {
		return prefix2{}
	}
	// Each nonzero bucket's corners as ids of their grid lines: x₁, x₂,
	// y₁, y₂. They start as arrival ids in the line sets and become ranks
	// once the lines are sorted.
	corner := make([]int32, 0, 4*nonzero)
	var xset, yset lineSet
	for j, w := range t.weights {
		if w != 0 {
			corner = append(corner,
				xset.add(t.blo[2*j]), xset.add(t.bhi[2*j]),
				yset.add(t.blo[2*j+1]), yset.add(t.bhi[2*j+1]))
		}
	}
	limit := maxCellsPerBucket * m
	nx, ny := len(xset.vals), len(yset.vals)
	if (nx-1)*(ny-1) > limit {
		return prefix2{}
	}
	xs, xrank := xset.sorted()
	ys, yrank := yset.sorted()
	covered := 0
	for k := 0; k < len(corner); k += 4 {
		c := corner[k : k+4 : k+4]
		c[0], c[1], c[2], c[3] = xrank[c[0]], xrank[c[1]], yrank[c[2]], yrank[c[3]]
		if covered += int(c[1]-c[0]) * int(c[3]-c[2]); covered > limit {
			return prefix2{}
		}
	}
	// Paint each bucket's mass into the cells it covers, cell (a, c) at
	// mass[(a+1)·ny + c+1]; row 0 and column 0 stay zero, F on the grid's
	// low edges.
	mass := make([]float64, nx*ny)
	k := 0
	for j, w := range t.weights {
		if w == 0 {
			continue
		}
		c := corner[k : k+4 : k+4]
		k += 4
		density := w * t.invVols[j]
		for a := c[0]; a < c[1]; a++ {
			col := density * (xs[a+1] - xs[a])
			row := mass[int(a+1)*ny:][:ny]
			for b := c[2]; b < c[3]; b++ {
				row[b+1] += col * (ys[b+1] - ys[b])
			}
		}
	}
	// One prefix pass: F at (i, j) is F at (i-1, j) plus the running sum
	// of row i's cells up to j — additions only, so no cancellation.
	for i := 1; i < nx; i++ {
		prev, row := mass[(i-1)*ny:][:ny], mass[i*ny:][:ny]
		run := 0.0
		for j := 1; j < ny; j++ {
			run += row[j]
			row[j] = prev[j] + run
		}
	}
	return prefix2{xs: xs, ys: ys, mass: mass}
}

// boxMass is the mass of the box [x1,x2]×[y1,y2], x1 ≤ x2 and y1 ≤ y2:
// one binary search per coordinate, four interpolations. Each difference
// pairs two lookups at the same x, so a box of zero width on either axis
// gets exactly 0.
func (p *prefix2) boxMass(x1, y1, x2, y2 float64) float64 {
	i1, tx1 := locate(p.xs, x1)
	i2, tx2 := locate(p.xs, x2)
	j1, ty1 := locate(p.ys, y1)
	j2, ty2 := locate(p.ys, y2)
	return (p.cdf(i2, tx2, j2, ty2) - p.cdf(i2, tx2, j1, ty1)) -
		(p.cdf(i1, tx1, j2, ty2) - p.cdf(i1, tx1, j1, ty1))
}

// cdf is F inside cell (i, j) at fractions tx, ty of its width and height:
// the bilinear interpolation of the cell's four corner values.
func (p *prefix2) cdf(i int, tx float64, j int, ty float64) float64 {
	ny := len(p.ys)
	f := p.mass[i*ny+j:][:ny+2]
	lo := f[0] + tx*(f[ny]-f[0])
	hi := f[1] + tx*(f[ny+1]-f[1])
	return lo + ty*(hi-lo)
}

// locate clamps x to the extent of the grid lines g and returns the cell
// [g[i], g[i+1]] holding it with x's offset into it as a fraction of the
// cell's width. x must not be NaN.
func locate(g []float64, x float64) (int, float64) {
	last := len(g) - 1
	if x <= g[0] {
		return 0, 0
	}
	if x >= g[last] {
		return last - 1, 1
	}
	lo, hi := 0, last // g[lo] ≤ x < g[hi]
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if g[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, (x - g[lo]) / (g[lo+1] - g[lo])
}

// lineSet collects one axis's distinct bucket corners in a small
// open-addressing table keyed on their bits. It grows with the distinct
// values, not the corners, so a quadtree's few hundred dyadic lines take
// a few hundred slots however many buckets share them.
type lineSet struct {
	keys  []uint64  // a value's bits + 1; 0 marks an empty slot
	ids   []int32   // the arrival id of the value in keys[i]
	vals  []float64 // distinct values in arrival order
	shift uint      // 64 − log₂ len(keys)
	// The last two keys added and their ids. Neighbouring buckets share
	// corners — one bucket's hi is often the next one's lo — so most adds
	// end here.
	recent   [2]uint64
	recentID [2]int32
}

// add returns x's arrival id, inserting x if it is new. -0 and +0 are one
// line. x must not be NaN.
func (s *lineSet) add(x float64) int32 {
	if x == 0 {
		x = 0
	}
	key := math.Float64bits(x) + 1
	switch key {
	case s.recent[0]:
		return s.recentID[0]
	case s.recent[1]:
		return s.recentID[1]
	}
	if len(s.keys) == 0 {
		s.grow()
	}
	i := s.probe(key)
	if s.keys[i] != key {
		if 2*len(s.vals) >= len(s.keys) {
			s.grow()
			i = s.probe(key)
		}
		s.keys[i], s.ids[i] = key, int32(len(s.vals))
		s.vals = append(s.vals, x)
	}
	s.recent[1], s.recentID[1] = s.recent[0], s.recentID[0]
	s.recent[0], s.recentID[0] = key, s.ids[i]
	return s.ids[i]
}

// probe returns key's slot, or the empty slot where it would go.
func (s *lineSet) probe(key uint64) uint64 {
	i := key * 0x9e3779b97f4a7c15 >> s.shift
	for s.keys[i] != key && s.keys[i] != 0 {
		i = (i + 1) & uint64(len(s.keys)-1)
	}
	return i
}

// grow doubles the table (64 slots at first) and reinserts every value.
// The home slot is the top bits of a Fibonacci hash: a dyadic value's bits
// differ only in their top bits, and a product carries differences only
// upward.
func (s *lineSet) grow() {
	n := max(64, 2*len(s.keys))
	s.keys, s.ids = make([]uint64, n), make([]int32, n)
	s.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for id, x := range s.vals {
		i := s.probe(math.Float64bits(x) + 1)
		s.keys[i], s.ids[i] = math.Float64bits(x)+1, int32(id)
	}
}

// sorted returns the distinct values in ascending order and, for each
// arrival id, the value's rank in that order.
func (s *lineSet) sorted() ([]float64, []int32) {
	order := make([]int32, len(s.vals))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(s.vals[a], s.vals[b]) })
	lines, rank := make([]float64, len(order)), make([]int32, len(order))
	for r, id := range order {
		lines[r], rank[id] = s.vals[id], int32(r)
	}
	return lines, rank
}
