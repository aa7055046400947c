package hist

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/quadtree"
	"repro/internal/solver"
)

// Incremental maintains a QUADHIST model under streaming query feedback —
// the deployment mode of query-driven histograms in a live optimizer
// (STHoles and ISOMER likewise ingest one observed query at a time). The
// quadtree refines online with each observation (Algorithm 2 is inherently
// incremental), and the weights are re-estimated every RefitEvery
// observations over the full feedback history.
//
// Because the quadtree partition is order-independent (Lemma A.4), an
// Incremental that has seen a workload in any order owns exactly the same
// buckets as a batch Trainer given that workload — property-tested in
// incremental_test.go.
type Incremental struct {
	dim        int
	tau        float64
	refitEvery int

	tree     *quadtree.Tree
	samples  []core.LabeledQuery
	model    *Model
	sinceFit int
}

// IncrementalOptions configures streaming training.
type IncrementalOptions struct {
	// Tau is the split threshold (must be positive: there is no whole-
	// workload available up front to search it automatically).
	Tau float64
	// MaxBuckets caps the partition size (0 = unlimited).
	MaxBuckets int
	// RefitEvery re-estimates weights after this many observations
	// (default 32). Refit is also available on demand.
	RefitEvery int
}

// NewIncremental returns a streaming QUADHIST for dimension dim.
func NewIncremental(dim int, opts IncrementalOptions) (*Incremental, error) {
	if opts.Tau <= 0 {
		return nil, errors.New("hist: incremental training needs an explicit positive Tau")
	}
	refit := opts.RefitEvery
	if refit == 0 {
		refit = 32
	}
	var qopts []quadtree.Option
	if opts.MaxBuckets > 0 {
		qopts = append(qopts, quadtree.WithMaxLeaves(opts.MaxBuckets))
	}
	return &Incremental{
		dim:        dim,
		tau:        opts.Tau,
		refitEvery: refit,
		tree:       quadtree.New(dim, qopts...),
	}, nil
}

// Observe ingests one feedback record (query, observed selectivity),
// refining the bucket structure immediately and re-fitting weights on the
// configured cadence. A selectivity that is NaN or ±Inf is refused with
// an error wrapping core.ErrNonFiniteSelectivity, and the state is left
// as it was.
func (inc *Incremental) Observe(q geom.Range, sel float64) error {
	if err := core.CheckFiniteSelectivity(sel); err != nil {
		return fmt.Errorf("hist: observation %d: %w", len(inc.samples), err)
	}
	rvol := q.IntersectBoxVolume(geom.UnitCube(inc.dim))
	inc.tree.Insert(q, sel, rvol, inc.tau)
	inc.samples = append(inc.samples, core.LabeledQuery{R: q, Sel: sel})
	inc.sinceFit++
	if inc.sinceFit >= inc.refitEvery {
		return inc.Refit()
	}
	return nil
}

// Refit re-estimates the bucket weights from the full feedback history.
func (inc *Incremental) Refit() error {
	buckets := inc.tree.Leaves()
	a := core.DesignMatrixBoxes(inc.samples, buckets)
	w, err := solver.Weights(a, core.Selectivities(inc.samples))
	if err != nil {
		return err
	}
	inc.model = &Model{Buckets: buckets, Weights: w}
	inc.sinceFit = 0
	return nil
}

// Observed returns the number of feedback records ingested.
func (inc *Incremental) Observed() int { return len(inc.samples) }

// NumBuckets returns the current partition size (which may be ahead of the
// last refit model).
func (inc *Incremental) NumBuckets() int { return inc.tree.NumLeaves() }

// Estimate returns the current model's prediction. Before any refit it
// falls back to the uniform prior (volume of the range inside the cube) —
// the estimate a fresh optimizer without statistics would use.
func (inc *Incremental) Estimate(r geom.Range) float64 {
	if inc.model == nil {
		return core.Clamp01(r.IntersectBoxVolume(geom.UnitCube(inc.dim)))
	}
	return inc.model.Estimate(r)
}

// Snapshot returns the last refit model (nil before the first refit). The
// returned model is immutable: later observations build a new one.
func (inc *Incremental) Snapshot() *Model { return inc.model }

var _ core.Model = (*Incremental)(nil)
