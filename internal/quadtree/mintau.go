package quadtree

import (
	"container/heap"
	"math"
	"slices"

	"repro/internal/geom"
)

// MinTau returns the split threshold at which the tree BuildFromQueries
// grows from samples, without a leaf cap, first has at most maxLeaves
// leaves: leaves(τ) ≤ maxLeaves exactly when τ ≥ MinTau. It returns 0 when
// every τ ≥ 0 fits, and +Inf when none does (maxLeaves < 1, or a sample
// whose score is NaN splits past the cap). Of the options only
// WithMaxDepth applies.
//
// One pass suffices because of how update descends. It splits node u for
// query R when R reaches u and p(u,R) = splitScore > τ, and R reaches u
// exactly when that held on every strict ancestor. A query that misses a
// node scores 0 there, and a NaN score counts as +Inf, since `p <= tau`
// lets it through. So u splits at τ exactly when it lies above the depth
// cap and
//
//	eff(u) = max over R of (min of p(v,R) over the path root..u) > τ.
//
// eff never grows from parent to child, so the uncapped tree at τ has
// 1 + (2^d − 1)·#{u : eff(u) > τ} leaves, in any sample order; this is
// why Lemma A.4 holds for every range class. MinTau grows the tree best
// first from a max-heap on eff, so nodes leave the heap in non-increasing
// eff, and returns the eff of the first split that takes the leaf count
// past maxLeaves: every node of higher eff has split by then.
//
// Each heap node carries one (query, path minimum) pair per query that can
// still split it. With C leaves so far, r = ⌊(maxLeaves − C)/(2^d − 1)⌋ + 1
// more splits overflow the cap, so the r-th largest eff in the heap is a
// lower bound on the answer. A pair whose path minimum is under that bound
// decides no split at or above the answer, so children drop it.
func MinTau(dim int, samples []Sample, maxLeaves int, opts ...Option) float64 {
	leaves := 1
	if leaves > maxLeaves {
		return math.Inf(1)
	}
	fan := 1<<uint(dim) - 1 // leaves one split adds
	w := &bestFirst{
		samples:  samples,
		rVol:     make([]float64, len(samples)),
		maxDepth: New(dim, opts...).maxDepth,
	}
	cube := geom.UnitCube(dim)
	top := make([]pair, 0, len(samples))
	for i, z := range samples {
		rvol := z.RVol
		if rvol == 0 {
			rvol = z.R.IntersectBoxVolume(cube)
		}
		w.rVol[i] = rvol
		if rvol <= 0 || z.S <= 0 {
			continue // InsertCounted ignores the sample
		}
		top = append(top, pair{q: i, pm: math.Inf(1)})
	}
	w.push(cube, 0, top)
	for pops := 1; w.heap.Len() > 0; pops++ {
		u := heap.Pop(&w.heap).(*frontierNode)
		leaves += fan
		if leaves > maxLeaves {
			return u.eff
		}
		if pops%16 == 0 {
			w.bound = max(w.bound, w.heap.rthLargest((maxLeaves-leaves)/fan+1))
		}
		for _, b := range u.box.Children() {
			w.push(b, u.depth+1, u.pairs)
		}
	}
	return 0
}

// pair is one query that reaches a node, with the smallest split score on
// its path from the root.
type pair struct {
	q  int // index into the samples
	pm float64
}

type frontierNode struct {
	box   geom.Box
	depth int
	eff   float64 // the largest pm of its pairs
	pairs []pair
}

// bestFirst is MinTau's working state.
type bestFirst struct {
	samples  []Sample
	rVol     []float64
	maxDepth int
	heap     frontier
	bound    float64 // a lower bound on the answer
	scratch  []pair
}

// push lowers each of the parent's pairs to box's score, keeps those that
// can still split box at a threshold of at least the bound, and pushes
// box when it can split at all.
func (w *bestFirst) push(box geom.Box, depth int, parent []pair) {
	if depth >= w.maxDepth {
		return
	}
	w.scratch = w.scratch[:0]
	eff := 0.0
	for _, pr := range parent {
		if pr.pm < w.bound {
			continue // the bound rose since the parent was pushed
		}
		z := &w.samples[pr.q]
		if !z.R.IntersectsBox(box) {
			continue
		}
		p := splitScore(z.R, box, z.S, w.rVol[pr.q])
		if math.IsNaN(p) {
			p = math.Inf(1)
		}
		pm := min(pr.pm, p)
		if pm <= 0 || pm < w.bound {
			continue
		}
		w.scratch = append(w.scratch, pair{q: pr.q, pm: pm})
		eff = max(eff, pm)
	}
	if len(w.scratch) == 0 {
		return
	}
	heap.Push(&w.heap, &frontierNode{box: box, depth: depth, eff: eff, pairs: slices.Clone(w.scratch)})
}

// frontier is a max-heap of nodes on eff.
type frontier []*frontierNode

func (f frontier) Len() int           { return len(f) }
func (f frontier) Less(i, j int) bool { return f[i].eff > f[j].eff }
func (f frontier) Swap(i, j int)      { f[i], f[j] = f[j], f[i] }
func (f *frontier) Push(x any)        { *f = append(*f, x.(*frontierNode)) }
func (f *frontier) Pop() any {
	old := *f
	n := old[len(old)-1]
	old[len(old)-1] = nil
	*f = old[:len(old)-1]
	return n
}

// rthLargest returns the r-th largest eff in f, or 0 when f holds fewer
// than r nodes.
func (f frontier) rthLargest(r int) float64 {
	if r > len(f) {
		return 0
	}
	effs := make([]float64, len(f))
	for i, n := range f {
		effs[i] = n.eff
	}
	slices.Sort(effs)
	return effs[len(effs)-r]
}
