// Package bvh provides a bounding-volume hierarchy over weighted boxes,
// used to accelerate selectivity estimation for histogram models with many
// buckets.
//
// A flat histogram evaluates Σⱼ vol(Bⱼ∩R)/vol(Bⱼ)·wⱼ in O(m) per query.
// The BVH stores subtree weight sums, so a query that fully contains a
// subtree's bounding box adds the cached sum in O(1), and disjoint
// subtrees are skipped entirely; only buckets straddling the query
// boundary are evaluated individually. For the quadtree-partition models
// of this repository that reduces per-query work from O(m) to roughly
// O(√m) in 2D (the boundary buckets).
//
// A 2-D tree whose buckets draw a small grid also carries the histogram's
// CDF at the grid's corners (a prefix-mass table), and answers a box
// query from it with four bilinear lookups, in O(log m) however many
// buckets the box cuts; the prediction-time experiment (ext_predtime)
// measures both.
//
// The same structure serves any model whose buckets are boxes with
// nonnegative weights — QUADHIST, ISOMER and QUICKSEL alike (overlapping
// buckets are fine: the sum is over buckets, not over space).
package bvh

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
)

// maxLeafSize is the bucket count below which a node stays a leaf.
const maxLeafSize = 8

// Tree is an immutable BVH over weighted box buckets, stored in a flat
// structure-of-arrays layout: node bounding boxes, child links, leaf
// windows, and bucket corners all live in contiguous slices indexed by
// node or bucket id, so a query walk streams through a few dense arrays
// instead of chasing per-node pointers into scattered allocations. Box
// queries additionally take a specialized walk that classifies nodes and
// buckets with inline coordinate comparisons — no interface dispatch per
// node.
//
// Subtree weight sums are stored out-of-line in a slice indexed by node id
// rather than next to the geometry, so a tree can be reweighted without
// rebuilding: Reweight shares every structure array (node boxes, links,
// leaf windows, bucket geometry, precomputed inverse volumes), allocating
// only a new weight vector's worth of cached sums. The online-learning
// fast path (internal/online) publishes one such structurally-shared tree
// per feedback update.
//
// A 2-D tree may also carry a prefix-mass table for box queries (see
// prefix2), computed from the buckets and weights whenever a tree is
// built, loaded or reweighted.
type Tree struct {
	dim int
	// Node arrays, indexed by node id. Ids are assigned in build order
	// (pre-order), so children always have larger ids than their parent —
	// which is what lets newTree's box sweep and sumWeights each run as
	// one reverse sweep.
	nlo, nhi    []float64 // node bounding boxes, dim coords per node
	left, right []int32   // child node ids, -1 at leaves
	loff, lcnt  []int32   // a leaf's window [loff, loff+lcnt) into leafIdx
	leafIdx     []int32   // bucket ids in leaf order (Order)
	// Bucket geometry flattened alongside the originals: blo/bhi mirror
	// buckets[j].Lo/Hi at offset j*dim, kept so the leaf loops read
	// contiguous memory instead of slice-of-slice corners.
	blo, bhi []float64

	buckets []geom.Box
	weights []float64
	invVols []float64
	wsums   []float64 // subtree weight sums, indexed by node id

	// The 2-D box queries' table; empty unless it serves this tree.
	tab prefix2
}

// Build constructs a BVH over the buckets with the given weights: it sorts
// the bucket ids into leaf order and lays the tree over that order. The
// slices are captured, not copied; callers must not mutate them afterward.
func Build(buckets []geom.Box, weights []float64) *Tree {
	if len(buckets) != len(weights) {
		panic("bvh: buckets/weights length mismatch")
	}
	if len(buckets) == 0 {
		return newTree(buckets, weights, nil, nil, nil)
	}
	d := buckets[0].Dim()
	blo := make([]float64, 0, len(buckets)*d)
	bhi := make([]float64, 0, len(buckets)*d)
	for _, b := range buckets {
		blo = append(blo, b.Lo...)
		bhi = append(bhi, b.Hi...)
	}
	order := make([]int32, len(buckets))
	for i := range order {
		order[i] = int32(i)
	}
	sortOrder(order, blo, bhi, d)
	return newTree(buckets, weights, blo, bhi, order)
}

// FromOrder rebuilds the tree Build made over these buckets from its leaf
// order (Tree.Order) alone, so a snapshot need store nothing else: node
// boxes, subtree sums, inverse volumes and the 2-D table are derived
// from the buckets and weights exactly as Build derives them. blo and bhi
// hold the bucket corners flattened (bucket j's at j·dim). It fails
// unless order is a permutation of the bucket ids. All slices are
// captured, not copied.
func FromOrder(buckets []geom.Box, weights []float64, blo, bhi []float64, order []int32) (*Tree, error) {
	m, d := len(buckets), 0
	if m > 0 {
		d = buckets[0].Dim()
	}
	switch {
	case len(weights) != m:
		return nil, fmt.Errorf("bvh: %d buckets but %d weights", m, len(weights))
	case len(order) != m:
		return nil, fmt.Errorf("bvh: %d buckets but %d ids in the order", m, len(order))
	case len(blo) != m*d || len(bhi) != m*d:
		return nil, fmt.Errorf("bvh: bucket corner arrays want %d coords, have %d/%d", m*d, len(blo), len(bhi))
	}
	seen := make([]bool, m)
	for _, j := range order {
		if j < 0 || int(j) >= m {
			return nil, fmt.Errorf("bvh: bucket id %d out of range", j)
		}
		if seen[j] {
			return nil, fmt.Errorf("bvh: bucket %d twice in the order", j)
		}
		seen[j] = true
	}
	return newTree(buckets, weights, blo, bhi, order), nil
}

// sortOrder arranges idx into leaf order. It recurses the way build
// splits (at len/2, down to maxLeafSize) and sorts each window it splits
// by bucket center along the widest dimension of the window's bounding
// box. This order is the only part of a tree the geometry decides.
func sortOrder(idx []int32, blo, bhi []float64, d int) {
	if len(idx) <= maxLeafSize {
		return
	}
	axis, widest := 0, 0.0
	for i := 0; i < d; i++ {
		lo, hi := blo[int(idx[0])*d+i], bhi[int(idx[0])*d+i]
		for _, j := range idx[1:] {
			lo, hi = min(lo, blo[int(j)*d+i]), max(hi, bhi[int(j)*d+i])
		}
		if w := hi - lo; i == 0 || w > widest {
			widest, axis = w, i
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		ca := blo[int(idx[a])*d+axis] + bhi[int(idx[a])*d+axis]
		cb := blo[int(idx[b])*d+axis] + bhi[int(idx[b])*d+axis]
		return ca < cb
	})
	mid := len(idx) / 2
	sortOrder(idx[:mid], blo, bhi, d)
	sortOrder(idx[mid:], blo, bhi, d)
}

// newTree is the one constructor behind Build and FromOrder. It lays
// build's topology over the leaf order and derives the rest in one
// reverse sweep: a leaf's box, its buckets' inverse volumes and its
// weight sum from its window, a parent's box and sum from its children's
// (min and max give the same bits in any order).
func newTree(buckets []geom.Box, weights []float64, blo, bhi []float64, order []int32) *Tree {
	t := &Tree{buckets: buckets, weights: weights}
	m := len(buckets)
	if m == 0 {
		return t
	}
	d := buckets[0].Dim()
	t.dim, t.blo, t.bhi, t.leafIdx = d, blo, bhi, order
	n := nodesFor(int32(m))
	t.left, t.right = make([]int32, 0, n), make([]int32, 0, n)
	t.loff, t.lcnt = make([]int32, 0, n), make([]int32, 0, n)
	t.build(0, int32(m))
	t.nlo, t.nhi = make([]float64, n*d), make([]float64, n*d)
	t.invVols = make([]float64, m)
	t.wsums = make([]float64, n)
	for id := n - 1; id >= 0; id-- {
		lo, hi := t.nlo[id*d:(id+1)*d], t.nhi[id*d:(id+1)*d]
		if l, r := int(t.left[id]), int(t.right[id]); l >= 0 {
			for i := range lo {
				lo[i] = min(t.nlo[l*d+i], t.nlo[r*d+i])
				hi[i] = max(t.nhi[l*d+i], t.nhi[r*d+i])
			}
		} else {
			window := order[t.loff[id] : t.loff[id]+t.lcnt[id]]
			copy(lo, blo[int(window[0])*d:])
			copy(hi, bhi[int(window[0])*d:])
			for _, j := range window {
				bo := int(j) * d
				for i := range lo {
					lo[i] = min(lo[i], blo[bo+i])
					hi[i] = max(hi[i], bhi[bo+i])
				}
				t.invVols[j] = invVol(blo[bo:bo+d], bhi[bo:bo+d])
			}
		}
		t.wsums[id] = t.nodeSum(id)
	}
	t.tab = newPrefix2(t)
	return t
}

// invVol is 1/vol of the box with corners lo and hi, or 0 if the volume
// is not positive. The volume is geom.Box.Volume's product, factor for
// factor, so the bits match a Box's.
func invVol(lo, hi []float64) float64 {
	v := 1.0
	for i := range lo {
		side := hi[i] - lo[i]
		if side <= 0 {
			return 0
		}
		v *= side
	}
	if v > 0 {
		return 1 / v
	}
	return 0
}

func (t *Tree) numNodes() int { return len(t.left) }

// nodesFor is the node count of the tree build lays over n buckets, so
// the link and window arrays are allocated once.
func nodesFor(n int32) int {
	if n <= maxLeafSize {
		return 1
	}
	return 1 + nodesFor(n/2) + nodesFor(n-n/2)
}

// build appends the subtree over the leaf-order window [off, off+n) to the
// link and leaf-window arrays and returns its id: a leaf at maxLeafSize
// buckets or fewer, otherwise a node split at n/2. The shape therefore
// depends only on the bucket count, and ids come out in pre-order.
func (t *Tree) build(off, n int32) int32 {
	id := int32(len(t.left))
	t.left = append(t.left, -1)
	t.right = append(t.right, -1)
	t.loff = append(t.loff, 0)
	t.lcnt = append(t.lcnt, 0)
	if n <= maxLeafSize {
		t.loff[id], t.lcnt[id] = off, n
		return id
	}
	mid := n / 2
	lo := t.build(off, mid)
	hi := t.build(off+mid, n-mid)
	t.left[id], t.right[id] = lo, hi
	return id
}

// Reweight returns a tree over the same buckets with a new weight vector:
// every structure array — node boxes, child links, leaf windows, bucket
// geometry, and inverse volumes — is shared with the receiver (they are
// immutable), while the weights, the per-node sums and the 2-D table are
// computed afresh from w; the receiver's table is never patched. Cost is
// O(m) plus the table's grid — no sorting of buckets, no tree building —
// which is what makes copy-on-write weight publication cheap enough for
// the per-feedback online update path. w is captured, not copied; callers
// must not mutate it afterward.
func (t *Tree) Reweight(w []float64) *Tree {
	if len(w) != len(t.buckets) {
		panic("bvh: Reweight weight count mismatch")
	}
	nt := &Tree{
		dim:     t.dim,
		nlo:     t.nlo,
		nhi:     t.nhi,
		left:    t.left,
		right:   t.right,
		loff:    t.loff,
		lcnt:    t.lcnt,
		leafIdx: t.leafIdx,
		blo:     t.blo,
		bhi:     t.bhi,
		buckets: t.buckets,
		weights: w,
		invVols: t.invVols,
	}
	if n := nt.numNodes(); n > 0 {
		nt.wsums = make([]float64, n)
		nt.sumWeights()
	}
	nt.tab = newPrefix2(nt)
	return nt
}

// sumWeights fills wsums for every node in one reverse sweep: children
// have larger ids than their parent, so by the time a parent is reached
// both subtree sums are ready.
func (t *Tree) sumWeights() {
	for id := t.numNodes() - 1; id >= 0; id-- {
		t.wsums[id] = t.nodeSum(id)
	}
}

// nodeSum is node id's subtree weight sum once its children's are in
// wsums. Leaf sums add bucket weights in leaf-window order and parents
// add left+right — exactly the post-order recursion the pointer tree
// used, so reweighted trees produce byte-identical sums for a given
// weight vector.
func (t *Tree) nodeSum(id int) float64 {
	if t.left[id] >= 0 {
		return t.wsums[t.left[id]] + t.wsums[t.right[id]]
	}
	s := 0.0
	for _, j := range t.leafIdx[t.loff[id] : t.loff[id]+t.lcnt[id]] {
		s += t.weights[j]
	}
	return s
}

// Len returns the number of indexed buckets.
func (t *Tree) Len() int { return len(t.buckets) }

// Weights returns the tree's weight vector. Callers must not mutate it.
func (t *Tree) Weights() []float64 { return t.weights }

// Order returns the bucket ids in leaf order, which with the buckets and
// weights determines the whole tree (FromOrder). Callers must not mutate
// it.
func (t *Tree) Order() []int32 { return t.leafIdx }

// Estimate returns Σⱼ vol(Bⱼ∩R)/vol(Bⱼ)·wⱼ over all indexed buckets,
// clamped to [0,1]. Box queries (by value or pointer — the serving wire
// path passes pooled *geom.Box) take the 2-D table when the tree has one
// and the specialized coordinate walk otherwise; all other range classes
// go through the generic classifier.
func (t *Tree) Estimate(r geom.Range) float64 {
	if t.numNodes() == 0 {
		return 0
	}
	var s float64
	switch q := r.(type) {
	case geom.Box:
		s = t.boxSum(q.Lo, q.Hi)
	case *geom.Box:
		s = t.boxSum(q.Lo, q.Hi)
	default:
		s = t.estimate(0, r)
	}
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// boxSum is the unclamped box-query sum: the table's when the tree has one
// and the query is 2-D without a NaN coordinate, the coordinate walk's
// otherwise. A box inverted on either axis holds no mass; the walk finds
// the same, since no bucket can lie inside it.
func (t *Tree) boxSum(lo, hi geom.Point) float64 {
	if t.tab.mass != nil && len(lo) == 2 && len(hi) == 2 {
		x1, y1, x2, y2 := lo[0], lo[1], hi[0], hi[1]
		switch {
		case math.IsNaN(x1) || math.IsNaN(y1) || math.IsNaN(x2) || math.IsNaN(y2):
		case x1 > x2 || y1 > y2:
			return 0
		default:
			return t.tab.boxMass(x1, y1, x2, y2)
		}
	}
	return t.estimateBox(0, lo, hi)
}

// estimateBox is the box-query walk: node and bucket classification are
// inline float comparisons over the flat coordinate arrays. The recursion
// structure (left subtree + right subtree) and the per-leaf term order
// match the generic walk exactly, so both produce the same float results.
func (t *Tree) estimateBox(id int32, qlo, qhi geom.Point) float64 {
	wsum := t.wsums[id]
	if wsum == 0 {
		return 0
	}
	d := t.dim
	off := int(id) * d
	nlo := t.nlo[off : off+d]
	nhi := t.nhi[off : off+d]
	contained := true
	for i := 0; i < d; i++ {
		if qlo[i] > nhi[i] || nlo[i] > qhi[i] {
			return 0 // disjoint
		}
		if nlo[i] < qlo[i] || nhi[i] > qhi[i] {
			contained = false
		}
	}
	if contained {
		return wsum
	}
	if t.left[id] < 0 {
		s := 0.0
		for _, j := range t.leafIdx[t.loff[id] : t.loff[id]+t.lcnt[id]] {
			w := t.weights[j]
			if w == 0 {
				continue
			}
			bo := int(j) * d
			blo := t.blo[bo : bo+d]
			bhi := t.bhi[bo : bo+d]
			// One pass classifies the bucket and accumulates the
			// intersection volume, mirroring geom.ClassifyBox +
			// IntersectBoxVolume: disjoint skips, contained adds the
			// full weight (zero-volume buckets behave like point
			// masses), straddling pays vol·invVol·w.
			vol := 1.0
			cont, zero := true, false
			for i := 0; i < d; i++ {
				bl, bh := blo[i], bhi[i]
				if qlo[i] > bh || bl > qhi[i] {
					cont, zero = false, true
					break
				}
				if bl < qlo[i] || bh > qhi[i] {
					cont = false
				}
				side := min(bh, qhi[i]) - max(bl, qlo[i])
				if side <= 0 {
					zero = true
				} else {
					vol *= side
				}
			}
			switch {
			case cont:
				s += w
			case !zero && t.invVols[j] != 0:
				s += vol * t.invVols[j] * w
			}
		}
		return s
	}
	return t.estimateBox(t.left[id], qlo, qhi) + t.estimateBox(t.right[id], qlo, qhi)
}

// nodeBox returns node id's bounding box as a view over the flat arrays
// (no allocation; the windows are immutable).
func (t *Tree) nodeBox(id int32) geom.Box {
	off := int(id) * t.dim
	return geom.Box{
		Lo: geom.Point(t.nlo[off : off+t.dim : off+t.dim]),
		Hi: geom.Point(t.nhi[off : off+t.dim : off+t.dim]),
	}
}

func (t *Tree) estimate(id int32, r geom.Range) float64 {
	wsum := t.wsums[id]
	if wsum == 0 {
		return 0
	}
	switch geom.ClassifyBox(r, t.nodeBox(id)) {
	case geom.BoxDisjoint:
		return 0
	case geom.BoxContained:
		return wsum
	}
	if t.left[id] < 0 {
		s := 0.0
		for _, j := range t.leafIdx[t.loff[id] : t.loff[id]+t.lcnt[id]] {
			w := t.weights[j]
			if w == 0 {
				continue
			}
			switch geom.ClassifyBox(r, t.buckets[j]) {
			case geom.BoxDisjoint:
			case geom.BoxContained:
				// Zero-volume buckets behave like point masses: they
				// contribute fully when contained (matching the flat
				// model semantics) and nothing on partial overlap.
				s += w
			default:
				if t.invVols[j] != 0 {
					s += r.IntersectBoxVolume(t.buckets[j]) * t.invVols[j] * w
				}
			}
		}
		return s
	}
	return t.estimate(t.left[id], r) + t.estimate(t.right[id], r)
}

// ForEachOverlap calls fn(j, frac) for every bucket j with nonzero
// fractional coverage frac = vol(Bⱼ∩R)/vol(Bⱼ) (1 for contained buckets,
// point-mass convention for zero-volume ones). It is the sparse row of the
// design matrix the online-learning update rules need: disjoint subtrees
// are pruned, contained subtrees enumerate without further classification,
// and only boundary buckets pay for an intersection volume. Enumeration
// order is fixed by the tree structure, so consumers are deterministic.
func (t *Tree) ForEachOverlap(r geom.Range, fn func(j int, frac float64)) {
	if t.numNodes() > 0 {
		t.overlap(0, r, false, fn)
	}
}

func (t *Tree) overlap(id int32, r geom.Range, contained bool, fn func(j int, frac float64)) {
	if !contained {
		switch geom.ClassifyBox(r, t.nodeBox(id)) {
		case geom.BoxDisjoint:
			return
		case geom.BoxContained:
			contained = true
		}
	}
	if t.left[id] < 0 {
		for _, j := range t.leafIdx[t.loff[id] : t.loff[id]+t.lcnt[id]] {
			if contained {
				fn(int(j), 1)
				continue
			}
			switch geom.ClassifyBox(r, t.buckets[j]) {
			case geom.BoxDisjoint:
			case geom.BoxContained:
				fn(int(j), 1)
			default:
				if t.invVols[j] != 0 {
					if frac := r.IntersectBoxVolume(t.buckets[j]) * t.invVols[j]; frac > 0 {
						fn(int(j), frac)
					}
				}
			}
		}
		return
	}
	t.overlap(t.left[id], r, contained, fn)
	t.overlap(t.right[id], r, contained, fn)
}

// ForEachOverlapFlat is the O(m) reference of ForEachOverlap, used by
// models below the indexing threshold (and by the property tests as
// ground truth). Buckets are visited in index order.
func ForEachOverlapFlat(buckets []geom.Box, r geom.Range, fn func(j int, frac float64)) {
	for j, b := range buckets {
		switch geom.ClassifyBox(r, b) {
		case geom.BoxDisjoint:
		case geom.BoxContained:
			fn(j, 1)
		default:
			if v := b.Volume(); v > 0 {
				if frac := r.IntersectBoxVolume(b) / v; frac > 0 {
					fn(j, frac)
				}
			}
		}
	}
}

// EstimateFlat is the O(m) reference kernel the tree accelerates:
// Σⱼ vol(Bⱼ∩R)/vol(Bⱼ)·wⱼ clamped to [0,1]. It is the single flat
// implementation shared by every box-bucketed model below the indexing
// threshold, and the ground truth the BVH property tests compare against.
func EstimateFlat(buckets []geom.Box, weights []float64, r geom.Range) float64 {
	s := 0.0
	for j, b := range buckets {
		w := weights[j]
		if w == 0 {
			continue
		}
		switch geom.ClassifyBox(r, b) {
		case geom.BoxDisjoint:
		case geom.BoxContained:
			s += w
		default:
			if v := b.Volume(); v > 0 {
				s += r.IntersectBoxVolume(b) / v * w
			}
		}
	}
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// IndexThreshold is the bucket count at which box-bucketed models switch
// from the flat kernel to a BVH walk, which touches only the O(√m)
// boundary buckets. BenchmarkIndexCrossover finds the tree faster at every
// m from 16 up, but the flat kernel and the tree sum in different orders,
// so moving the threshold would change the bits of every model in the
// moved range.
const IndexThreshold = 64

// Lazy is a lazily-built, immutably-shared BVH over a fixed bucket set.
// The zero value is ready for use; the first Ensure (or Seed) call installs
// the tree exactly once (sync.Once), after which the same *Tree is shared
// by every concurrent reader. Models embed a Lazy so Estimate stays safe
// for any number of goroutines while never rebuilding the index.
type Lazy struct {
	once sync.Once
	tree atomic.Pointer[Tree]
}

// Ensure returns the shared tree for the given buckets/weights, building
// it on first call if the bucket count is at least IndexThreshold, and nil
// otherwise (callers fall back to EstimateFlat). The slices are captured
// by the built tree; callers must not mutate them afterwards — the same
// immutability the core.Model concurrency contract already demands.
func (l *Lazy) Ensure(buckets []geom.Box, weights []float64) *Tree {
	if len(buckets) < IndexThreshold {
		return nil
	}
	l.once.Do(func() { l.tree.Store(Build(buckets, weights)) })
	return l.tree.Load()
}

// Seed installs a prebuilt tree as this Lazy's index, winning only if no
// index has been built yet. The copy-on-write publication path uses it so
// a reweighted model starts life with its structurally-shared tree already
// in place — the subsequent Ensure/Accelerate is then a no-op instead of a
// full rebuild.
func (l *Lazy) Seed(t *Tree) {
	l.once.Do(func() { l.tree.Store(t) })
}

// Built returns the index if one has been built or seeded, and nil
// otherwise. It never triggers a build.
func (l *Lazy) Built() *Tree { return l.tree.Load() }
