// Package kdtree counts the data points in [0,1]^d inside arbitrary
// geom.Range queries, exactly.
//
// It is the substrate that labels training and test workloads with exact
// selectivities: counting the data points inside a query range, divided by
// the dataset size. Axis-aligned boxes, the paper's orthogonal ranges, are
// counted from a per-dimension rank index (rankindex.go). Every other
// range is counted by a pruned kd-tree walk. Pruning uses only the
// ContainsBox / IntersectsBox predicates of the range, so the same walk
// serves halfspaces, balls, and semi-algebraic ranges alike.
package kdtree

import (
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/geom"
)

// leafSize is the maximum number of points stored in a leaf node.
const leafSize = 32

// Tree counts points of a fixed point set. Boxes go to the rank index.
// Other ranges, and boxes the index refuses, walk a kd-tree. Each
// structure is built on the first count that needs it, so labeling that
// uses only boxes never builds the kd-tree, and labeling that uses no
// box never builds the index. A Tree is safe for concurrent use.
type Tree struct {
	dim    int
	points []geom.Point // the caller's points; the walk sorts a copy

	idxOnce sync.Once  // builds idx
	idx     *rankIndex // nil until a box is counted, or when a coordinate is NaN

	walkOnce sync.Once // builds root and nanPoints
	root     *node     // the kd-tree over the points without a NaN; nil if none
	// nanPoints are the points holding a NaN coordinate. They stay out of
	// the kd nodes, whose bounding boxes cannot bound them, and every walk
	// tests each one with the range's own Contains, as BruteCount does.
	nanPoints []geom.Point
}

type node struct {
	bbox   geom.Box
	count  int
	points []geom.Point // non-nil only at leaves
	axis   int
	split  float64
	lo, hi *node
}

// Build returns a Tree over the given points, which are not copied:
// callers must not mutate them afterwards, since the index and the
// kd-tree are built from them on first use. All points must share the
// same dimensionality.
func Build(points []geom.Point) *Tree {
	if len(points) == 0 {
		return &Tree{}
	}
	return &Tree{dim: len(points[0]), points: points}
}

func boundingBox(points []geom.Point, d int) geom.Box {
	lo := make(geom.Point, d)
	hi := make(geom.Point, d)
	copy(lo, points[0])
	copy(hi, points[0])
	for _, p := range points[1:] {
		for i := 0; i < d; i++ {
			if p[i] < lo[i] {
				lo[i] = p[i]
			}
			if p[i] > hi[i] {
				hi[i] = p[i]
			}
		}
	}
	return geom.Box{Lo: lo, Hi: hi}
}

func build(points []geom.Point, depth, d int) *node {
	nd := &node{bbox: boundingBox(points, d), count: len(points)}
	if len(points) <= leafSize {
		nd.points = points
		return nd
	}
	// Split the widest dimension of the bounding box at the median:
	// keeps the tree balanced even under heavy data skew.
	axis := 0
	widest := nd.bbox.Hi[0] - nd.bbox.Lo[0]
	for i := 1; i < d; i++ {
		if w := nd.bbox.Hi[i] - nd.bbox.Lo[i]; w > widest {
			widest, axis = w, i
		}
	}
	if widest == 0 {
		// All points identical: degenerate leaf regardless of size.
		nd.points = points
		return nd
	}
	sort.Slice(points, func(i, j int) bool { return points[i][axis] < points[j][axis] })
	mid := len(points) / 2
	// Move mid off runs of equal coordinates so both sides are non-empty.
	// The exact float comparisons are deliberate: after sorting, a "run"
	// means bit-identical coordinates (duplicated input points), and the
	// split must not separate them — a tolerance would merge distinct
	// neighbors instead.
	for mid < len(points)-1 && points[mid][axis] == points[mid-1][axis] { //selvet:ignore floateq exact comparison detects runs of duplicated coordinates after sorting
		mid++
	}
	if mid == len(points)-1 && points[mid][axis] == points[mid-1][axis] { //selvet:ignore floateq exact comparison detects runs of duplicated coordinates after sorting
		for mid > 1 && points[mid][axis] == points[mid-1][axis] { //selvet:ignore floateq exact comparison detects runs of duplicated coordinates after sorting
			mid--
		}
	}
	nd.axis = axis
	nd.split = points[mid][axis]
	nd.lo = build(points[:mid], depth+1, d)
	nd.hi = build(points[mid:], depth+1, d)
	nd.points = nil
	return nd
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return len(t.points) }

// Count returns the number of indexed points inside the range. It panics
// when the range's dimension is not the points' (an empty tree counts 0
// for any range).
func (t *Tree) Count(r geom.Range) int {
	if len(t.points) == 0 {
		return 0
	}
	if r.Dim() != t.dim {
		panic("kdtree: Tree.Count dimension mismatch")
	}
	if b, ok := r.(geom.Box); ok {
		t.idxOnce.Do(func() { t.idx = newRankIndex(t.points, t.dim) })
		if t.idx != nil {
			return t.idx.count(b)
		}
	}
	t.walkOnce.Do(t.buildWalk)
	c := 0
	if t.root != nil {
		c = countNode(t.root, r)
	}
	for _, p := range t.nanPoints {
		if r.Contains(p) {
			c++
		}
	}
	return c
}

// buildWalk builds the kd-tree over a copy of the points that hold no NaN
// coordinate and sets the others aside in nanPoints.
func (t *Tree) buildWalk() {
	noNaN := make([]geom.Point, 0, len(t.points))
	for _, p := range t.points {
		if slices.ContainsFunc(p, math.IsNaN) {
			t.nanPoints = append(t.nanPoints, p)
		} else {
			noNaN = append(noNaN, p)
		}
	}
	if len(noNaN) > 0 {
		t.root = build(noNaN, 0, t.dim)
	}
}

func countNode(nd *node, r geom.Range) int {
	if !r.IntersectsBox(nd.bbox) {
		return 0
	}
	if r.ContainsBox(nd.bbox) {
		return nd.count
	}
	if nd.points != nil {
		c := 0
		for _, p := range nd.points {
			if r.Contains(p) {
				c++
			}
		}
		return c
	}
	return countNode(nd.lo, r) + countNode(nd.hi, r)
}

// Selectivity returns Count(r)/Len(), the exact selectivity of the range on
// the indexed dataset — the ground-truth labels of the paper's workloads.
func (t *Tree) Selectivity(r geom.Range) float64 {
	if len(t.points) == 0 {
		return 0
	}
	return float64(t.Count(r)) / float64(len(t.points))
}

// BruteCount is the reference O(n) implementation used by tests and by
// BenchmarkLabel's brute arm.
func BruteCount(points []geom.Point, r geom.Range) int {
	c := 0
	for _, p := range points {
		if r.Contains(p) {
			c++
		}
	}
	return c
}
