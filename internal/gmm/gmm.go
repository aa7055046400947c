// Package gmm implements a Gaussian-mixture selectivity model — the
// paper's "future work" model family ("our framework … works even if we
// consider data distributions with unbounded support, e.g., Gaussian
// mixtures; developing an algorithm that computes a Gaussian mixture with
// a small loss given a training sample is … an open problem").
//
// The model is a mixture of K isotropic Gaussians. Isotropy buys exact
// selectivities for all three query classes of the paper:
//
//   - Box: product of per-dimension normal-CDF differences.
//   - Halfspace {a·x ≥ b}: 1 − Φ((b − a·μ)/(σ‖a‖)) — a·X is univariate
//     normal.
//   - Ball of radius ρ around c: ‖X−c‖²/σ² is noncentral chi-square with
//     d degrees of freedom and noncentrality ‖μ−c‖²/σ².
//
// Training is the same two-phase recipe as the paper's generic learners:
// bucket (component) design followed by convex weight estimation. The
// components are placed by k-means over points sampled from the training
// query interiors (selectivity-proportional, as in PTSHIST), component
// spreads are the cluster RMS radii, and the mixture weights solve the
// constrained least-squares program of Eq. 8 — which is convex because the
// component parameters are held fixed.
package gmm

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/linalg"
	"repro/internal/ptshist"
	"repro/internal/rng"
	"repro/internal/solver"
)

// Component is one isotropic Gaussian of the mixture.
type Component struct {
	Mean  geom.Point
	Sigma float64
}

// Mass returns the component's probability mass inside the range, exactly
// for boxes, halfspaces and balls, and by bounding-box sampling otherwise.
// Pointer and value forms of the three closed-form classes take the same
// code path — the serving wire decoder passes pointers to pooled geometry.
func (c Component) Mass(r geom.Range) float64 {
	switch q := r.(type) {
	case geom.Box:
		return c.boxMass(q)
	case *geom.Box:
		return c.boxMass(*q)
	case geom.Halfspace:
		return c.halfspaceMass(q)
	case *geom.Halfspace:
		return c.halfspaceMass(*q)
	case geom.Ball:
		return c.ballMass(q)
	case *geom.Ball:
		return c.ballMass(*q)
	default:
		return c.sampleMass(r)
	}
}

func (c Component) boxMass(q geom.Box) float64 {
	m := 1.0
	for i := range c.Mean {
		lo := (q.Lo[i] - c.Mean[i]) / c.Sigma
		hi := (q.Hi[i] - c.Mean[i]) / c.Sigma
		if hi <= lo {
			return 0
		}
		m *= normCDF(hi) - normCDF(lo)
		if m == 0 {
			return 0
		}
	}
	return m
}

func (c Component) halfspaceMass(q geom.Halfspace) float64 {
	norm := q.A.Norm()
	if norm == 0 {
		if q.B <= 0 {
			return 1
		}
		return 0
	}
	return 1 - normCDF((q.B-q.A.Dot(c.Mean))/(c.Sigma*norm))
}

func (c Component) ballMass(q geom.Ball) float64 {
	if q.Radius <= 0 {
		return 0
	}
	d := float64(len(c.Mean))
	dist := c.Mean.Dist(q.Center)
	lambda := (dist / c.Sigma) * (dist / c.Sigma)
	x := (q.Radius / c.Sigma) * (q.Radius / c.Sigma)
	return noncentralChiSquareCDF(x, d, lambda)
}

// sampleMass estimates the mass by deterministic sampling of the Gaussian
// (Box–Muller over a Halton-free seeded stream would do; we use the shared
// RNG with a fixed seed derived from the component for reproducibility).
func (c Component) sampleMass(r geom.Range) float64 {
	const n = 4096
	rr := rng.New(uint64(math.Float64bits(c.Sigma)) ^ uint64(math.Float64bits(c.Mean[0])))
	hits := 0
	p := make(geom.Point, len(c.Mean))
	for i := 0; i < n; i++ {
		for j := range p {
			p[j] = c.Mean[j] + c.Sigma*rr.NormFloat64()
		}
		if r.Contains(p) {
			hits++
		}
	}
	return float64(hits) / n
}

// Model is a trained isotropic Gaussian mixture.
type Model struct {
	Components []Component
	Weights    []float64
}

// NumBuckets implements core.Model (components play the role of buckets).
func (m *Model) NumBuckets() int { return len(m.Components) }

// Estimate implements core.Model.
func (m *Model) Estimate(r geom.Range) float64 {
	s := 0.0
	for k, c := range m.Components {
		if w := m.Weights[k]; w > 0 {
			s += w * c.Mass(r)
		}
	}
	return core.Clamp01(s)
}

// samplesPerComponent is how many interior points per component feed
// k-means.
const samplesPerComponent = 20

// sigmaScales is the grid of spread multipliers tried during training;
// the one with the lowest training loss wins.
var sigmaScales = [...]float64{0.5, 1, 2}

// Options configures GMM training.
type Options struct {
	// K is the number of mixture components.
	K int
	// Seed drives component placement.
	Seed uint64
	// Solver picks the weight-estimation algorithm.
	Solver solver.Method
}

// Trainer builds Gaussian-mixture models.
type Trainer struct {
	Dim  int
	Opts Options
}

// New returns a GMM trainer with K components.
func New(dim, k int, seed uint64) *Trainer {
	return &Trainer{Dim: dim, Opts: Options{K: k, Seed: seed}}
}

// Name implements core.Trainer.
func (t *Trainer) Name() string { return "GaussMix" }

// Train implements core.Trainer.
func (t *Trainer) Train(samples []core.LabeledQuery) (core.Model, error) {
	m, err := t.TrainMixture(samples)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// TrainMixture is Train with a concrete return type.
func (t *Trainer) TrainMixture(samples []core.LabeledQuery) (*Model, error) {
	if len(samples) == 0 {
		return nil, errors.New("gmm: empty training set")
	}
	if t.Opts.K <= 0 {
		return nil, errors.New("gmm: K must be positive")
	}
	// Component design: selectivity-proportional interior sampling
	// (reusing PTSHIST's bucket-design phase), then k-means.
	sampler := &ptshist.Trainer{Dim: t.Dim, Opts: ptshist.Options{
		K:    t.Opts.K * samplesPerComponent,
		Seed: t.Opts.Seed,
	}}
	pts := sampler.SamplePoints(samples)
	r := rng.New(t.Opts.Seed + 101)
	centers, spreads := kMeans(pts, t.Opts.K, r, 25)
	if len(centers) == 0 {
		return nil, errors.New("gmm: component placement failed")
	}

	s := core.Selectivities(samples)
	var best *Model
	bestLoss := math.Inf(1)
	for _, scale := range sigmaScales {
		comps := make([]Component, len(centers))
		for k := range centers {
			comps[k] = Component{Mean: centers[k], Sigma: spreads[k] * scale}
		}
		a := designMatrix(samples, comps)
		w, err := solver.WeightsWith(t.Opts.Solver, a, s)
		if err != nil {
			return nil, fmt.Errorf("gmm: weight estimation: %w", err)
		}
		cand := &Model{Components: comps, Weights: w}
		loss := core.MSE(cand, samples)
		if loss < bestLoss {
			best, bestLoss = cand, loss
		}
	}
	return best, nil
}

// designMatrix assembles A[i][k] = mass of component k inside query i.
func designMatrix(samples []core.LabeledQuery, comps []Component) *linalg.Sparse {
	return linalg.NewSparseRows(len(samples), len(comps), 1, func(i int, row []float64) {
		for k, c := range comps {
			row[k] = c.Mass(samples[i].R)
		}
	})
}

var _ core.Trainer = (*Trainer)(nil)
var _ core.Model = (*Model)(nil)
