// Package quadtree implements the d-dimensional quadtree that drives
// QUADHIST's bucket-design phase (Section 3.2, Algorithms 1 and 2 of the
// paper).
//
// The tree starts as a single node spanning [0,1]^d. Each training sample
// (R, s) refines it: a node u is split into its 2^d equal children whenever
// the estimated density it would carry,
//
//	p = vol(u ∩ R)/vol(R) · s,
//
// exceeds the threshold τ, and the refinement recurses into the children.
// The final leaves become the histogram buckets. The construction is
// order-independent (Lemma A.4) for every range class — property-tested in
// this package — unless a hard leaf cap is set, in which case insertion
// order can matter for the tail of the splits (the paper notes the same
// caveat for its hard termination condition). MinTau (mintau.go) states
// why: without a cap, a node splits exactly when a per-node score, fixed
// by the samples alone, exceeds τ.
package quadtree

import "repro/internal/geom"

// Tree is a 2^d-ary spatial subdivision of the unit cube.
type Tree struct {
	dim       int
	root      *node
	numLeaves int
	maxLeaves int // 0 means unlimited
	maxDepth  int
}

type node struct {
	box      geom.Box
	children []*node // nil for leaves
}

// defaultMaxDepth bounds tree depth as a safety valve: a node at depth k
// has volume 2^{−dk}, far below any useful bucket size well before this.
const defaultMaxDepth = 32

// Option configures tree construction.
type Option func(*Tree)

// WithMaxLeaves caps the number of leaves; once reached, no further splits
// happen (the paper's "hard termination condition on the number of leaves").
func WithMaxLeaves(n int) Option {
	return func(t *Tree) { t.maxLeaves = n }
}

// WithMaxDepth overrides the safety depth limit.
func WithMaxDepth(d int) Option {
	return func(t *Tree) { t.maxDepth = d }
}

// New returns a single-node tree over [0,1]^dim.
func New(dim int, opts ...Option) *Tree {
	t := &Tree{
		dim:       dim,
		root:      &node{box: geom.UnitCube(dim)},
		numLeaves: 1,
		maxDepth:  defaultMaxDepth,
	}
	for _, o := range opts {
		o(t)
	}
	return t
}

// NumLeaves returns the current number of leaves (histogram buckets).
func (t *Tree) NumLeaves() int { return t.numLeaves }

// Dim returns the dimensionality of the tree.
func (t *Tree) Dim() int { return t.dim }

// Insert refines the tree with one training sample: query range r with
// selectivity s, split threshold tau (Algorithm 2). rVol must be the volume
// of r clipped to the unit cube; passing it explicitly lets callers compute
// it once per query.
func (t *Tree) Insert(r geom.Range, s, rVol, tau float64) {
	t.InsertCounted(r, s, rVol, tau)
}

// InsertCounted is Insert returning the number of tree nodes visited —
// the quantity Lemma A.2 bounds by O((s(R)/τ)·log(s(R)/(τ·vol R))). The
// bound is validated empirically in the package tests.
func (t *Tree) InsertCounted(r geom.Range, s, rVol, tau float64) int {
	if rVol <= 0 || s <= 0 {
		return 0
	}
	return t.update(t.root, 0, r, s, rVol, tau)
}

func (t *Tree) update(u *node, depth int, r geom.Range, s, rVol, tau float64) int {
	// Cheap disjointness rejection before the volume computation: the
	// quadtree "doubles up as a data structure for answering R as a range
	// query" (Section 3.2).
	if !r.IntersectsBox(u.box) {
		return 0
	}
	visited := 1
	p := splitScore(r, u.box, s, rVol)
	if p <= tau {
		return visited
	}
	if u.children == nil {
		if depth >= t.maxDepth {
			return visited
		}
		if t.maxLeaves > 0 && t.numLeaves+(1<<uint(t.dim))-1 > t.maxLeaves {
			return visited
		}
		boxes := u.box.Children()
		u.children = make([]*node, len(boxes))
		for i, b := range boxes {
			u.children[i] = &node{box: b}
		}
		t.numLeaves += len(boxes) - 1
	}
	for _, c := range u.children {
		visited += t.update(c, depth+1, r, s, rVol, tau)
	}
	return visited
}

// splitScore is Algorithm 2's p(u,R) = vol(R∩u)/vol(R)·s, the share of
// R's selectivity that falls in u. update splits u for R when it is above
// τ, and MinTau ranks nodes by it; one expression keeps the two in step.
func splitScore(r geom.Range, box geom.Box, s, rVol float64) float64 {
	return r.IntersectBoxVolume(box) / rVol * s
}

// Leaves returns the leaf boxes in deterministic DFS order.
func (t *Tree) Leaves() []geom.Box {
	out := make([]geom.Box, 0, t.numLeaves)
	var walk func(u *node)
	walk = func(u *node) {
		if u.children == nil {
			out = append(out, u.box)
			return
		}
		for _, c := range u.children {
			walk(c)
		}
	}
	walk(t.root)
	return out
}

// Depth returns the maximum leaf depth (root = 0), for diagnostics.
func (t *Tree) Depth() int {
	var walk func(u *node, d int) int
	walk = func(u *node, d int) int {
		if u.children == nil {
			return d
		}
		best := d
		for _, c := range u.children {
			if v := walk(c, d+1); v > best {
				best = v
			}
		}
		return best
	}
	return walk(t.root, 0)
}

// Sample is one training example for BuildFromQueries.
type Sample struct {
	R    geom.Range
	S    float64 // labeled selectivity
	RVol float64 // vol(R ∩ [0,1]^d); computed lazily if zero and needed
}

// BuildFromQueries runs Algorithm 1: a fresh tree refined by every sample
// in order. Samples with unknown RVol have it computed here.
func BuildFromQueries(dim int, samples []Sample, tau float64, opts ...Option) *Tree {
	t := New(dim, opts...)
	cube := geom.UnitCube(dim)
	for _, z := range samples {
		rvol := z.RVol
		if rvol == 0 {
			rvol = z.R.IntersectBoxVolume(cube)
		}
		t.Insert(z.R, z.S, rvol, tau)
	}
	return t
}
