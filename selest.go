// Package selest is a Go implementation of "Selectivity Functions of Range
// Queries are Learnable" (Hu et al., SIGMOD 2022): learned selectivity
// estimation for orthogonal range, linear-inequality (halfspace) and
// distance-based (ball) queries, trained purely from query feedback.
//
// The package is a thin, stable facade over the internal packages:
//
//   - Query geometry: Box, Halfspace, Ball, DiscIntersection (geom).
//   - Learners: QUADHIST (quadtree histogram, low dimensions), PTSHIST
//     (discrete point distribution, high dimensions), the exact arrangement
//     learner of Section 3.1, plus the ISOMER and QUICKSEL baselines.
//   - Workloads: synthetic stand-ins for the paper's four datasets and the
//     Data-driven/Random/Gaussian query generators, labeled exactly via a
//     kd-tree.
//   - Theory: VC dimensions, fat-shattering bound, Bartlett–Long sample
//     complexity (Theorem 2.1).
//
// # Quick start
//
//	ds := selest.NewDataset(selest.Power, 20000, 1).Project([]int{0, 1})
//	gen := selest.NewWorkload(ds, 42)
//	train, test := gen.TrainTest(selest.Spec{
//		Class:   selest.OrthogonalRange,
//		Centers: selest.DataDriven,
//	}, 500, 200)
//	model, err := selest.NewQuadHist(2, 2000).Train(train)
//	// model.Estimate(anyRange) → selectivity in [0,1]
//	_ = err
//	fmt.Println(selest.RMS(model, test))
//
// Every experiment (table and figure) of the paper can be regenerated via
// cmd/selbench or the benchmarks in bench_test.go; see DESIGN.md and
// EXPERIMENTS.md.
package selest

import (
	"io"
	"time"

	"repro/internal/arrangement"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/gmm"
	"repro/internal/hist"
	"repro/internal/isomer"
	"repro/internal/metrics"
	"repro/internal/modelio"
	"repro/internal/ptshist"
	"repro/internal/quicksel"
	"repro/internal/workload"
)

// Re-exported geometry types. A Range is any query region over [0,1]^d.
type (
	// Point is a point in R^d.
	Point = geom.Point
	// Range is a geometric query region (box, halfspace, ball, …).
	Range = geom.Range
	// Box is an orthogonal range query.
	Box = geom.Box
	// Halfspace is a linear-inequality query {x : A·x ≥ B}.
	Halfspace = geom.Halfspace
	// Ball is a distance-based query.
	Ball = geom.Ball
	// DiscIntersection is the semi-algebraic disc-intersection range of
	// Section 2.2.
	DiscIntersection = geom.DiscIntersection
	// LpBall is the ℓp-norm generalization of Ball (Appendix A.2).
	LpBall = geom.LpBall
	// SemiAlgebraic is the polynomial-constraint family T_{d,b,Δ} of
	// Section 2.2, with sound interval-arithmetic box predicates.
	SemiAlgebraic = geom.SemiAlgebraic
	// ConvexPolygon is the VC-dim=∞ negative example of Section 2.2.
	ConvexPolygon = geom.ConvexPolygon
)

// Re-exported learning-framework types.
type (
	// LabeledQuery is a (range, selectivity) training or test example.
	LabeledQuery = core.LabeledQuery
	// Model is a trained selectivity function.
	Model = core.Model
	// Trainer is a learning procedure.
	Trainer = core.Trainer
)

// Re-exported workload machinery.
type (
	// Dataset is a normalized point set with schema metadata.
	Dataset = dataset.Dataset
	// Workload generates labeled queries over a dataset.
	Workload = workload.Generator
	// Spec configures a workload (query class × center distribution).
	Spec = workload.Spec
)

// Query classes.
const (
	// OrthogonalRange queries are axis-aligned boxes (VC-dim 2d).
	OrthogonalRange = workload.OrthogonalRange
	// HalfspaceQueries are linear inequalities (VC-dim d+1).
	HalfspaceQueries = workload.Halfspace
	// BallQueries are Euclidean distance thresholds (VC-dim ≤ d+2).
	BallQueries = workload.Ball
	// DiscQueries are the semi-algebraic disc-intersection ranges of
	// Section 2.2, over 3D disc datasets (see the Discs dataset).
	DiscQueries = workload.DiscIntersect
)

// Center distributions.
const (
	// DataDriven centers follow the data distribution.
	DataDriven = workload.DataDriven
	// RandomCenters are uniform over the unit cube.
	RandomCenters = workload.Random
	// GaussianCenters cluster around the cube center.
	GaussianCenters = workload.Gaussian
)

// Built-in synthetic dataset names (see internal/dataset for the schema
// each one reproduces).
const (
	Power  = "power"
	Forest = "forest"
	Census = "census"
	DMV    = "dmv"
	// Discs is a dataset of discs encoded as (cx, cy, radius) points,
	// the object space of the disc-intersection query class.
	Discs = "discs"
)

// NewDataset builds one of the built-in synthetic datasets with n tuples
// (0 = the dataset's default size) and the given seed.
func NewDataset(name string, n int, seed uint64) *Dataset {
	return dataset.ByName(name, n, seed)
}

// NewWorkload builds a workload generator (and its exact labeling index)
// over the dataset.
func NewWorkload(ds *Dataset, seed uint64) *Workload {
	return workload.NewGenerator(ds, seed)
}

// NewQuadHist returns the QUADHIST trainer (Section 3.2): quadtree-guided
// histogram for dimension dim with at most maxBuckets buckets.
func NewQuadHist(dim, maxBuckets int) Trainer {
	return hist.New(dim, maxBuckets)
}

// NewPtsHist returns the PTSHIST trainer (Section 3.3): a discrete
// distribution on k points for dimension dim.
func NewPtsHist(dim, k int, seed uint64) Trainer {
	return ptshist.New(dim, k, seed)
}

// NewIsomer returns the ISOMER baseline trainer with the given training
// budget (0 = 30s), mirroring the paper's 30-minute cutoff convention.
func NewIsomer(dim int, budget time.Duration) Trainer {
	return &isomer.Trainer{Dim: dim, Opts: isomer.Options{Budget: budget}}
}

// NewQuickSel returns the QUICKSEL baseline trainer (4× bucket convention).
func NewQuickSel(dim int, seed uint64) Trainer {
	return quicksel.New(dim, seed)
}

// NewArrangement returns the exact arrangement learner of Section 3.1
// (orthogonal ranges only; cost grows as O(n^d)).
func NewArrangement(dim int, discrete bool) Trainer {
	return arrangement.New(dim, discrete)
}

// NewGaussMix returns the Gaussian-mixture trainer (the model family named
// as future work in Section 6) with k isotropic components.
func NewGaussMix(dim, k int, seed uint64) Trainer {
	return gmm.New(dim, k, seed)
}

// IncrementalQuadHist is a QUADHIST maintained under streaming query
// feedback: Observe one (query, selectivity) record at a time; weights
// refit on a cadence. See internal/hist for details.
type IncrementalQuadHist = hist.Incremental

// NewIncrementalQuadHist returns a streaming QUADHIST with split threshold
// tau, bucket cap maxBuckets (0 = unlimited), refitting every refitEvery
// observations.
func NewIncrementalQuadHist(dim int, tau float64, maxBuckets, refitEvery int) (*IncrementalQuadHist, error) {
	return hist.NewIncremental(dim, hist.IncrementalOptions{
		Tau:        tau,
		MaxBuckets: maxBuckets,
		RefitEvery: refitEvery,
	})
}

// IndexModel builds a box-bucketed model's (QUADHIST, ISOMER, QUICKSEL)
// bounding-volume hierarchy now rather than on its first estimate, and
// returns the model itself. Every such model at 64 buckets and above owns
// this index; smaller models, and models whose buckets are not boxes
// (PTSHIST, GaussMix), have none and pass through untouched. Estimates are
// bit-identical either way.
func IndexModel(m Model) Model {
	core.Accelerate(m)
	return m
}

// SaveModel persists a trained model in the JSON envelope format.
func SaveModel(w io.Writer, m Model) error { return modelio.Save(w, m) }

// LoadModel restores a model written by SaveModel.
func LoadModel(r io.Reader) (Model, error) { return modelio.Load(r) }

// RMS returns the model's root-mean-square error on the sample.
func RMS(m Model, samples []LabeledQuery) float64 { return core.RMS(m, samples) }

// LInf returns the model's maximum absolute error on the sample.
func LInf(m Model, samples []LabeledQuery) float64 { return core.LInf(m, samples) }

// QErrorSummary is the 50th/95th/99th/max Q-error row of the paper's
// tables.
type QErrorSummary = metrics.QErrorSummary

// QErrors returns the Q-error summary of the model on the sample; minSel
// floors both estimate and truth (use 1/dataset-size).
func QErrors(m Model, samples []LabeledQuery, minSel float64) QErrorSummary {
	est := core.Estimates(m, samples)
	truth := workload.Truths(samples)
	return metrics.SummarizeQErrors(est, truth, minSel)
}

// Theorem 2.1 calculators: minimum training-set sizes with unit constants.
// See internal/core for the underlying bounds.
var (
	// SampleComplexityOrthogonal is n₀(ε,δ) for boxes in R^d: Õ(ε^−(2d+3)).
	SampleComplexityOrthogonal = core.SampleComplexityOrthogonal
	// SampleComplexityHalfspace is n₀(ε,δ) for halfspaces: Õ(ε^−(d+4)).
	SampleComplexityHalfspace = core.SampleComplexityHalfspace
	// SampleComplexityBall is n₀(ε,δ) for balls: Õ(ε^−(d+5)).
	SampleComplexityBall = core.SampleComplexityBall
	// FatShattering is the Lemma 2.6 bound on fat_S(γ) for VC-dim λ.
	FatShattering = core.FatShattering
)

// NewBox builds an orthogonal range query from its corners.
func NewBox(lo, hi Point) Box { return geom.NewBox(lo, hi) }

// NewBall builds a distance-based query.
func NewBall(center Point, radius float64) Ball { return geom.NewBall(center, radius) }

// NewHalfspace builds the linear-inequality query {x : a·x ≥ b}.
func NewHalfspace(a Point, b float64) Halfspace { return geom.NewHalfspace(a, b) }

// NewLpBall builds a distance query under the ℓp norm (p ≥ 1; +Inf for the
// ℓ∞ cube).
func NewLpBall(center Point, radius, p float64) LpBall { return geom.NewLpBall(center, radius, p) }

// NewAnnulus builds the Figure 3 semi-algebraic example: a ring
// rInner ≤ ‖(x,y)−c‖ ≤ rOuter cut by the parabola y−cy ≤ k(x−cx)².
func NewAnnulus(cx, cy, rInner, rOuter, k float64) SemiAlgebraic {
	return geom.Annulus(cx, cy, rInner, rOuter, k)
}
