// Package core defines the learning framework of Section 2 of the paper:
// labeled query samples, the Model/Trainer contract every estimator in this
// repository implements, the loss functions used for training and
// evaluation, and the learning-theoretic calculators (VC dimensions,
// fat-shattering bound of Lemma 2.6, Bartlett–Long sample complexity) that
// Theorem 2.1 is built from.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// LabeledQuery is one training or test example z = (R, s) ∈ R × [0,1]:
// a query range with its (observed) selectivity. As the paper's remark
// notes, s need not equal s_D(R) for any distribution D — labels may be
// noisy.
type LabeledQuery struct {
	R   geom.Range
	Sel float64
}

// ErrNonFiniteSelectivity is what CheckFiniteSelectivities wraps.
var ErrNonFiniteSelectivity = errors.New("selectivity is not finite")

// CheckFiniteSelectivities returns an error naming the first sample whose
// selectivity is NaN or ±Inf, or nil when every label is finite. Every
// trainer calls it before anything else. A NaN label would otherwise
// train without error and wreck the model: QUADHIST's split test
// `p <= tau` is false for it, so the query splits every node it touches
// until the bucket cap stops it, and any label that is not finite
// poisons the least-squares fit of Equation 8.
func CheckFiniteSelectivities(samples []LabeledQuery) error {
	for i, z := range samples {
		if math.IsNaN(z.Sel) || math.IsInf(z.Sel, 0) {
			return fmt.Errorf("training sample %d: %w (%v)", i, ErrNonFiniteSelectivity, z.Sel)
		}
	}
	return nil
}

// Model is a learned selectivity function s_D induced by some data
// distribution D (histogram or discrete).
//
// Concurrency contract: once training returns, a Model is immutable and
// both methods must be safe for any number of concurrent readers without
// external locking — a serving layer calls Estimate from many goroutines
// against a model that may be atomically swapped out underneath it.
// Implementations must not reseed generators or otherwise mutate
// observable receiver state inside Estimate/NumBuckets. The one sanctioned
// exception is an internally synchronized, build-exactly-once acceleration
// index (sync.Once) — the BVH of the box-bucketed models. The index may
// answer by another exact formula than the flat kernel (a different float
// summation order, or the 2-D prefix-mass table's CDF differences), so its
// answers agree with the flat kernel's within 1e-9, not bit for bit; but
// it is a pure function of the buckets and weights, so the same buckets
// and weights always get the same bits, however the index was built,
// loaded or reweighted. All model types in this repository satisfy the
// contract; internal/core's race test hammers them under the race
// detector.
type Model interface {
	// Estimate returns the predicted selectivity of the query range,
	// always in [0,1].
	Estimate(r geom.Range) float64
	// NumBuckets returns the model complexity (number of histogram
	// buckets or support points).
	NumBuckets() int
}

// Accelerable is the capability interface of models that carry a
// prebuildable acceleration index (the BVH of the box-bucketed
// histograms). The serving layer and the experiment runners call
// Accelerate through this interface — never via model type switches — so
// any new model type opts into the fast path just by implementing it.
type Accelerable interface {
	Model
	// Accelerate builds the model's acceleration index if it would pay
	// off (idempotent, safe under concurrency). Estimate uses the index
	// automatically whether or not Accelerate was called; calling it
	// eagerly just moves the one-time build cost off the first query.
	Accelerate()
}

// Accelerate eagerly builds m's acceleration index when the model offers
// one, reporting whether it did. Publishing paths (model upload, retrain
// hot-swap) call this so the first estimate after a swap is already fast.
func Accelerate(m Model) bool {
	a, ok := m.(Accelerable)
	if ok {
		a.Accelerate()
	}
	return ok
}

// Reweightable is the capability interface of bucket-weight models whose
// structure (bucket geometry, acceleration index) is fixed after training
// while the weight vector alone carries the learned distribution — the
// box-histogram families QUADHIST, QUICKSEL and ISOMER. It is the contract
// the online-learning subsystem (internal/online) builds on: a feedback
// item becomes a new weight vector published as a structurally-shared copy
// of the model, with no retraining and no index rebuild. As with
// Accelerable, consumers discover the capability through this interface,
// never via model type switches, so a new model family opts into online
// updates just by implementing it.
type Reweightable interface {
	Model
	// WeightView exposes the model's bucket geometry and current weight
	// vector. Both slices are live model state: callers must not mutate
	// them (the Model concurrency contract already demands immutability).
	WeightView() (buckets []geom.Box, weights []float64)
	// WithWeights returns a new model of the same family that shares the
	// receiver's bucket geometry — and, when one exists, its acceleration
	// index structure — with w as its weight vector. w is captured, not
	// copied; the caller must not mutate it afterwards. The receiver is
	// unchanged: concurrent estimates against it never see the new
	// weights.
	WithWeights(w []float64) Model
}

// Trainer is a learning procedure A: finite sample sequences → models.
type Trainer interface {
	// Train fits a model to the labeled sample.
	Train(samples []LabeledQuery) (Model, error)
	// Name identifies the method in experiment output.
	Name() string
}

// MSE returns the mean squared loss (Equation 1 of the paper) of the model
// on the sample.
func MSE(m Model, samples []LabeledQuery) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := 0.0
	for _, z := range samples {
		d := m.Estimate(z.R) - z.Sel
		s += d * d
	}
	return s / float64(len(samples))
}

// RMS returns the root mean squared error, the headline metric of the
// paper's figures.
func RMS(m Model, samples []LabeledQuery) float64 {
	return math.Sqrt(MSE(m, samples))
}

// LInf returns the maximum absolute error over the sample (Section 4.6).
func LInf(m Model, samples []LabeledQuery) float64 {
	worst := 0.0
	for _, z := range samples {
		worst = math.Max(worst, math.Abs(m.Estimate(z.R)-z.Sel))
	}
	return worst
}

// estimatesParallelThreshold is the batch size at which Estimates fans
// out across the shared worker pool; below it the per-region overhead
// outweighs the estimate work.
const estimatesParallelThreshold = 64

// Estimates evaluates the model on every sample, returning predictions in
// sample order. Large batches are evaluated on the shared deterministic
// worker pool — each prediction lands in its own index slot, so the
// result is byte-identical for any worker count. This is the same batched
// kernel the serving layer's /v1/estimate uses.
func Estimates(m Model, samples []LabeledQuery) []float64 {
	return EstimatesWith(m, samples, 0)
}

// EstimatesWith is Estimates with an explicit worker count (0 = pool
// default, 1 = serial).
func EstimatesWith(m Model, samples []LabeledQuery, workers int) []float64 {
	ranges := make([]geom.Range, len(samples))
	for i := range samples {
		ranges[i] = samples[i].R
	}
	out := make([]float64, len(samples))
	EstimateRangesInto(m, ranges, workers, out)
	return out
}

// EstimateRangesInto evaluates the model on every range, writing
// predictions into out (which must have len(ranges) slots) in range
// order. It is the one batched-prediction kernel shared by Estimates and
// the serving layer: each prediction lands in its own index slot, so the
// output is byte-identical for any worker count. workers 0 means the
// pool default; batches below the parallel threshold run serially.
func EstimateRangesInto(m Model, ranges []geom.Range, workers int, out []float64) {
	if len(out) != len(ranges) {
		panic("core: EstimateRangesInto output length mismatch")
	}
	if workers <= 0 && len(ranges) < estimatesParallelThreshold {
		workers = 1
	}
	if workers == 1 {
		// Inline serial loop: identical results to the one-worker pool
		// path (both are index-addressed), but the closure below never
		// materializes — the serving layer's zero-allocation estimate
		// path depends on this.
		for i, r := range ranges {
			out[i] = m.Estimate(r)
		}
		return
	}
	parallel.ForEachChunk(len(ranges), workers, 0, func(i int) {
		out[i] = m.Estimate(ranges[i])
	})
}

// EstimateRangesTraced is EstimateRangesInto wrapped in a child span of
// parent named "core.estimate_ranges", annotated with the batch size. With
// an inactive parent span the wrapper is free: the zero Span's Child and
// End are no-ops.
func EstimateRangesTraced(m Model, ranges []geom.Range, workers int, out []float64, parent obs.Span) {
	sp := parent.Child("core.estimate_ranges")
	sp.Items = int64(len(ranges))
	EstimateRangesInto(m, ranges, workers, out)
	sp.End()
}

// Clamp01 clips a prediction to the valid selectivity interval.
func Clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
