// Package hist implements QUADHIST (Section 3.2 of the paper): a
// query-driven histogram whose buckets are the leaves of a quadtree refined
// by the training workload's geometry and selectivities, with weights fit by
// the generic constrained least-squares program of Equation 8.
//
// QUADHIST is the paper's generic instantiation for low-dimensional data.
// Regardless of the query class — orthogonal range, halfspace, or ball —
// the buckets are axis-aligned boxes, so prediction only needs
// range-vs-box intersection volumes (exact in the geometry substrate).
//
// Model, the weighted-box histogram of Equation 6, is also the model the
// QUICKSEL and ISOMER learners return: the three differ in how they pick
// buckets and fit weights, never in how they predict.
package hist

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/bvh"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/lp"
	"repro/internal/obs"
	"repro/internal/quadtree"
	"repro/internal/solver"
)

// Objective selects the training loss of Section 4.6.
type Objective int

const (
	// ObjectiveL2 is the mean-squared loss of Equation 8 (default).
	ObjectiveL2 Objective = iota
	// ObjectiveLInf minimizes the maximum absolute training error via LP.
	ObjectiveLInf
)

// Options configures QUADHIST training.
type Options struct {
	// Tau is the split threshold of Algorithm 2. If zero, SearchTau
	// picks it so that the bucket count approaches MaxBuckets (the paper
	// controls model size "by varying τ or adding a hard termination
	// condition").
	Tau float64
	// MaxBuckets caps model complexity. Zero means unlimited (valid only
	// with explicit Tau).
	MaxBuckets int
	// Solver picks the weight-estimation algorithm (auto by default).
	Solver solver.Method
	// Objective picks the training loss (L2 by default).
	Objective Objective
}

// Trainer builds QUADHIST models for a fixed dimensionality.
type Trainer struct {
	Dim  int
	Opts Options
	// Log, when non-nil, collects per-stage timings and solver iteration
	// counts (and mirrors the stages as trace spans); see obs.TrainLog.
	Log *obs.TrainLog
}

// New returns a QUADHIST trainer with the paper's defaults: model size
// capped at maxBuckets, τ found automatically.
func New(dim, maxBuckets int) *Trainer {
	return &Trainer{Dim: dim, Opts: Options{MaxBuckets: maxBuckets}}
}

// Name implements core.Trainer.
func (t *Trainer) Name() string { return "QuadHist" }

// Family names the learner that produced a Model. It picks the model's
// name in saved files and the trainer that refits it; it never changes an
// estimate.
type Family uint8

const (
	// QuadHist: disjoint quadtree leaves partitioning [0,1]^d (the zero
	// value, so a Model literal without a Family is a QUADHIST).
	QuadHist Family = iota
	// QuickSel: a mixture of uniforms over overlapping boxes.
	QuickSel
	// Isomer: a disjoint box partition with maximum-entropy weights.
	Isomer
)

// Model is a trained box histogram: weighted box buckets, predicting with
// Equation 6. QUADHIST and ISOMER buckets are disjoint; QUICKSEL's
// overlap, which the estimate sum (over buckets, not space) does not care
// about.
//
// Estimate is BVH-accelerated: at bvh.IndexThreshold buckets and above, a
// lazily-built, immutably-shared tree prunes disjoint subtrees and adds
// cached weight sums for contained ones, so large models answer in
// roughly O(√m) instead of O(m). A 2-D model whose buckets draw a small
// grid — QUADHIST's partitions, and ISOMER's at small training sizes, but
// never QUICKSEL's overlapping boxes — answers box queries from the tree's
// prefix-mass table instead, in O(log m). Buckets and Weights must not be
// mutated after the first Estimate/Accelerate call.
type Model struct {
	Buckets []geom.Box
	Weights []float64
	Family  Family `json:"-"`

	accel bvh.Lazy
}

// Train implements core.Trainer.
func (t *Trainer) Train(samples []core.LabeledQuery) (core.Model, error) {
	m, err := t.TrainHist(samples)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// TrainHist is Train with a concrete return type.
func (t *Trainer) TrainHist(samples []core.LabeledQuery) (*Model, error) {
	if err := core.CheckFiniteSelectivities(samples); err != nil {
		return nil, fmt.Errorf("hist: %w", err)
	}
	if len(samples) == 0 {
		return nil, errors.New("hist: empty training set")
	}
	if t.Opts.Tau == 0 && t.Opts.MaxBuckets == 0 {
		return nil, errors.New("hist: need Tau or MaxBuckets")
	}
	qsamples := makeQuadSamples(samples, t.Dim)
	tau := t.Opts.Tau
	if tau == 0 {
		stage := t.Log.Stage("tau_search")
		tau = SearchTau(t.Dim, qsamples, t.Opts.MaxBuckets)
		stage.End()
	}
	var opts []quadtree.Option
	if t.Opts.MaxBuckets > 0 {
		opts = append(opts, quadtree.WithMaxLeaves(t.Opts.MaxBuckets))
	}
	stage := t.Log.Stage("quadtree_build")
	tree := quadtree.BuildFromQueries(t.Dim, qsamples, tau, opts...)
	buckets := tree.Leaves()
	stage.EndItems(int64(len(buckets)))

	stage = t.Log.Stage("design_matrix")
	a := core.DesignMatrixBoxes(samples, buckets)
	s := core.Selectivities(samples)
	stage.EndItems(int64(a.Rows) * int64(a.Cols))

	stage = t.Log.Stage("solve")
	var w []float64
	var err error
	var sst solver.Stats
	if t.Opts.Objective == ObjectiveLInf {
		w, err = lp.MinimaxWeights(a.Dense(), s)
		sst.Method = "lp_minimax"
	} else {
		w, err = solver.WeightsWithStats(t.Opts.Solver, a, s, &sst)
	}
	stage.EndItems(int64(sst.Iterations))
	if err != nil {
		return nil, fmt.Errorf("hist: weight estimation: %w", err)
	}
	t.Log.SetSolver(sst.Method, sst.Iterations)
	return &Model{Buckets: buckets, Weights: w}, nil
}

// makeQuadSamples precomputes clipped query volumes once per query.
func makeQuadSamples(samples []core.LabeledQuery, dim int) []quadtree.Sample {
	cube := geom.UnitCube(dim)
	out := make([]quadtree.Sample, len(samples))
	for i, z := range samples {
		out[i] = quadtree.Sample{R: z.R, S: z.Sel, RVol: z.R.IntersectBoxVolume(cube)}
	}
	return out
}

// SearchTau picks Algorithm 2's split threshold for a bucket cap, the τ a
// Trainer uses when Options.Tau is zero: the least τ, to within a ratio
// of 1.001, whose tree keeps within maxBuckets leaves. Leaf counts fall as
// τ grows, so it bisects geometrically on [1e-7, 1]. Each probe asks
// whether τ ≥ quadtree.MinTau, the exact threshold at which the uncapped
// tree first fits the cap, instead of building a tree. The probes, and so
// the result, are bit for bit those of a bisection over probe builds
// capped at maxBuckets + 2^d leaves: such a build ends within maxBuckets
// exactly when the uncapped tree does.
//
// The result lands up to 0.1% above MinTau's threshold; returning that
// threshold itself would change the tree whenever a second node's score
// lies in between.
func SearchTau(dim int, samples []quadtree.Sample, maxBuckets int) float64 {
	v := quadtree.MinTau(dim, samples, maxBuckets)
	lo, hi := 1e-7, 1.0 // leaf counts: many .. 1
	if lo >= v {
		return lo
	}
	for iter := 0; iter < 40 && hi/lo > 1.001; iter++ {
		mid := math.Sqrt(lo * hi) // geometric bisection: τ spans decades
		if mid >= v {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// NumBuckets implements core.Model.
func (m *Model) NumBuckets() int { return len(m.Buckets) }

// Estimate implements core.Model: Equation 6, Σⱼ vol(Bⱼ∩R)/vol(Bⱼ)·wⱼ,
// through the shared BVH for large models and the flat kernel below the
// indexing threshold.
func (m *Model) Estimate(r geom.Range) float64 {
	if t := m.accel.Ensure(m.Buckets, m.Weights); t != nil {
		return t.Estimate(r)
	}
	return bvh.EstimateFlat(m.Buckets, m.Weights, r)
}

// Accelerate implements core.Accelerable: it forces the one-time BVH
// build so the first estimate after a model swap is already sub-linear.
func (m *Model) Accelerate() { m.accel.Ensure(m.Buckets, m.Weights) }

// IndexTree returns the built BVH index, or nil if none has been built
// yet. It never triggers a build; the binary snapshot writer uses it to
// decide whether to persist the tree's leaf order.
func (m *Model) IndexTree() *bvh.Tree { return m.accel.Built() }

// SeedIndex installs a prebuilt BVH as this model's index (winning only if
// none exists yet): a binary snapshot load rebuilds the tree from its
// stored leaf order, without the bucket sort, and seeds it here, so the
// subsequent Accelerate is a no-op.
func (m *Model) SeedIndex(t *bvh.Tree) { m.accel.Seed(t) }

// WeightView implements core.Reweightable.
func (m *Model) WeightView() ([]geom.Box, []float64) { return m.Buckets, m.Weights }

// WithWeights implements core.Reweightable: the returned model shares the
// receiver's buckets and family, and when the receiver's BVH is built the
// new model is seeded with a reweighted tree (shared node structure, fresh
// subtree sums and 2-D table) — so publishing an online weight update
// costs an O(m) pass plus the table's grid, not an index rebuild.
func (m *Model) WithWeights(w []float64) core.Model {
	if len(w) != len(m.Buckets) {
		panic("hist: WithWeights weight count mismatch")
	}
	nm := &Model{Buckets: m.Buckets, Weights: w, Family: m.Family}
	if t := m.accel.Built(); t != nil {
		nm.accel.Seed(t.Reweight(w))
	}
	return nm
}

var _ core.Trainer = (*Trainer)(nil)
var _ core.Model = (*Model)(nil)
var _ core.Accelerable = (*Model)(nil)
var _ core.Reweightable = (*Model)(nil)
