// Package quicksel implements the QUICKSEL baseline (Park, Zhong, Mozafari,
// SIGMOD 2020) used in the paper's comparisons: the data distribution is a
// mixture of uniform distributions over (overlapping) boxes, and bucket
// weights are fit by a quadratic program that keeps the mixture as close to
// uniform as the observed selectivities allow.
//
// Following the paper's experimental convention, the model uses 4× as many
// buckets as training queries: the query boxes themselves plus random boxes
// sampled around query regions (QuickSel's own bucket-sampling strategy).
// Weight fitting minimizes ‖A·w − s‖² + μ‖w − u‖² over the probability
// simplex — the regularized, always-feasible version of QuickSel's
// "closest to uniform subject to consistency" program; the simplex
// constraint keeps estimates valid selectivities, which the paper requires
// of every compared method.
package quicksel

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/hist"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/solver"
)

// BucketMultiplier is the paper's 4× bucket convention.
const BucketMultiplier = 4

// Options configures QUICKSEL training.
type Options struct {
	// BucketsPerQuery is the bucket multiplier (default 4).
	BucketsPerQuery int
	// Mu is the uniform-regularization strength (default 1e-3).
	Mu float64
	// Seed drives bucket sampling.
	Seed uint64
	// Solver picks the weight-estimation algorithm.
	Solver solver.Method
	// ExactQP uses QuickSel's original equality-constrained quadratic
	// program — min ‖w−u‖² s.t. A·w = s, Σw = 1 — solved in closed form
	// via the KKT system. Weights may then be negative, which is exactly
	// the behaviour the paper criticizes ("models that do not correspond
	// to any valid hypothesis … estimates that are not monotone or
	// consistent"); estimates are still clamped to [0,1]. The default
	// (false) solves the regularized simplex-constrained variant instead,
	// keeping the model a valid distribution.
	ExactQP bool
}

// Trainer builds QUICKSEL models.
type Trainer struct {
	Dim  int
	Opts Options
	// Log, when non-nil, collects per-stage timings and solver iteration
	// counts (and mirrors the stages as trace spans); see obs.TrainLog.
	Log *obs.TrainLog
}

// New returns a QUICKSEL trainer with the 4× bucket convention.
func New(dim int, seed uint64) *Trainer {
	return &Trainer{Dim: dim, Opts: Options{Seed: seed}}
}

// Name implements core.Trainer.
func (t *Trainer) Name() string { return "QuickSel" }

// Train implements core.Trainer. The model is a hist.Model of family
// hist.QuickSel: a mixture of uniforms over overlapping boxes. Query
// ranges must expose a bounding box; non-box ranges are approximated by
// their bounding boxes, as a mixture of uniform boxes cannot represent
// them exactly.
func (t *Trainer) Train(samples []core.LabeledQuery) (core.Model, error) {
	if err := core.CheckFiniteSelectivities(samples); err != nil {
		return nil, fmt.Errorf("quicksel: %w", err)
	}
	if len(samples) == 0 {
		return nil, errors.New("quicksel: empty training set")
	}
	r := rng.New(t.Opts.Seed)
	mult := t.Opts.BucketsPerQuery
	if mult == 0 {
		mult = BucketMultiplier
	}
	mu := t.Opts.Mu
	if mu == 0 {
		mu = 1e-3
	}

	// Bucket generation: each query contributes its own box plus
	// (mult−1) jittered sub-boxes of it, QuickSel's sampling of the
	// "intersection lattice" of the workload.
	stage := t.Log.Stage("bucket_sample")
	buckets := make([]geom.Box, 0, mult*len(samples)+1)
	buckets = append(buckets, geom.UnitCube(t.Dim)) // background bucket
	for _, z := range samples {
		qb := boxOf(z.R)
		buckets = append(buckets, qb)
		for extra := 0; extra < mult-1; extra++ {
			buckets = append(buckets, jitteredSubBox(qb, r))
		}
	}
	stage.EndItems(int64(len(buckets)))

	stage = t.Log.Stage("design_matrix")
	a := core.DesignMatrixBoxes(samples, buckets)
	s := core.Selectivities(samples)
	stage.EndItems(int64(a.Rows) * int64(a.Cols))

	if t.Opts.ExactQP {
		stage = t.Log.Stage("solve")
		w, err := exactQPWeights(a, s)
		stage.End()
		if err != nil {
			return nil, err
		}
		t.Log.SetSolver("exact_qp", 0)
		return &hist.Model{Buckets: buckets, Weights: w, Family: hist.QuickSel}, nil
	}
	// Regularization rows: √μ·(w − u) ≈ 0.
	stage = t.Log.Stage("solve")
	n := len(buckets)
	m := len(samples)
	aug := linalg.NewMatrix(m+n, n)
	copy(aug.Data[:m*n], a.Data)
	sqrtMu := math.Sqrt(mu)
	u := 1 / float64(n)
	rhs := make([]float64, m+n)
	copy(rhs, s)
	for j := 0; j < n; j++ {
		aug.Set(m+j, j, sqrtMu)
		rhs[m+j] = sqrtMu * u
	}
	var sst solver.Stats
	w, err := solver.WeightsWithStats(t.Opts.Solver, aug, rhs, &sst)
	stage.EndItems(int64(sst.Iterations))
	if err != nil {
		return nil, err
	}
	t.Log.SetSolver(sst.Method, sst.Iterations)
	return &hist.Model{Buckets: buckets, Weights: w, Family: hist.QuickSel}, nil
}

// exactQPWeights solves min ‖w − u‖² subject to Ã·w = s̃, where Ã is A with
// an appended all-ones row and s̃ is s with an appended 1 (the sum-to-one
// constraint). The KKT conditions give w = u + Ãᵀλ with (Ã Ãᵀ)λ = s̃ − Ã·u;
// a small ridge handles rank deficiency (redundant or contradictory
// feedback rows).
func exactQPWeights(a *linalg.Matrix, s []float64) ([]float64, error) {
	m, n := a.Rows, a.Cols
	at := linalg.NewMatrix(m+1, n)
	copy(at.Data[:m*n], a.Data)
	ones := at.Row(m)
	for j := range ones {
		ones[j] = 1
	}
	rhs := make([]float64, m+1)
	u := 1 / float64(n)
	au := at.MulVec(uniformVec(n, u))
	copy(rhs, s)
	rhs[m] = 1
	for i := range rhs {
		rhs[i] -= au[i]
	}
	// Gram matrix G = Ã Ãᵀ (+ ridge).
	g := linalg.NewMatrix(m+1, m+1)
	for i := 0; i <= m; i++ {
		ri := at.Row(i)
		for j := i; j <= m; j++ {
			v := linalg.Dot(ri, at.Row(j))
			if i == j {
				v += 1e-9
			}
			g.Set(i, j, v)
			g.Set(j, i, v)
		}
	}
	lambda, err := linalg.CholeskySolve(g, rhs)
	if err != nil {
		return nil, err
	}
	w := at.TMulVec(lambda)
	for j := range w {
		w[j] += u
	}
	return w, nil
}

func uniformVec(n int, u float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = u
	}
	return v
}

// boxOf returns the range itself if it is a box, otherwise its bounding
// box.
func boxOf(r geom.Range) geom.Box {
	if b, ok := r.(geom.Box); ok {
		return b.BoundingBox()
	}
	return r.BoundingBox()
}

// jitteredSubBox draws a random sub-box of b: QuickSel populates its bucket
// set with boxes concentrated where queries observed mass.
func jitteredSubBox(b geom.Box, r *rng.RNG) geom.Box {
	d := b.Dim()
	lo := make(geom.Point, d)
	hi := make(geom.Point, d)
	for i := 0; i < d; i++ {
		side := b.Hi[i] - b.Lo[i]
		if side <= 0 {
			lo[i], hi[i] = b.Lo[i], b.Hi[i]
			continue
		}
		// Sub-interval covering 30–100% of the side.
		f := 0.3 + 0.7*r.Float64()
		w := f * side
		start := b.Lo[i] + r.Float64()*(side-w)
		lo[i], hi[i] = start, start+w
	}
	return geom.Box{Lo: lo, Hi: hi}
}

var _ core.Trainer = (*Trainer)(nil)
