// Package ptshist implements PTSHIST (Section 3.3 of the paper): a
// discrete-distribution model whose buckets are points in the data space —
// the paper's generic instantiation for high dimensions, where boxes become
// poor density representations and intersection volumes expensive.
//
// Bucket design draws 90% of the k points from the interiors of the
// training query ranges — each range receiving a share proportional to its
// selectivity — and the remaining 10% uniformly from the whole space so
// density can be allocated to regions no training query covers. Interior
// sampling uses rejection from the smallest bounding box (Appendix A.2).
// Weight estimation is the shared constrained least-squares program.
package ptshist

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/lp"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/solver"
)

// DefaultInteriorFraction is the paper's 0.9/0.1 interior/uniform split.
const DefaultInteriorFraction = 0.9

// Options configures PTSHIST training.
type Options struct {
	// K is the model size (number of point buckets).
	K int
	// Seed drives the deterministic sampling of bucket positions.
	Seed uint64
	// InteriorFraction is the share of buckets drawn from query
	// interiors; the paper uses 0.9. Zero means the default.
	InteriorFraction float64
	// Solver picks the weight-estimation algorithm (auto by default).
	Solver solver.Method
	// LInfObjective switches training to the minimax loss (Section 4.6).
	LInfObjective bool
}

// Trainer builds PTSHIST models for a fixed dimensionality.
type Trainer struct {
	Dim  int
	Opts Options
	// Log, when non-nil, collects per-stage timings and solver iteration
	// counts (and mirrors the stages as trace spans); see obs.TrainLog.
	Log *obs.TrainLog
}

// New returns a PTSHIST trainer with model size k.
func New(dim, k int, seed uint64) *Trainer {
	return &Trainer{Dim: dim, Opts: Options{K: k, Seed: seed}}
}

// Name implements core.Trainer.
func (t *Trainer) Name() string { return "PtsHist" }

// Model is a trained PTSHIST discrete distribution.
type Model struct {
	Points  []geom.Point
	Weights []float64
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
		return nil, fmt.Errorf("ptshist: %w", err)
	}
	if len(samples) == 0 {
		return nil, errors.New("ptshist: empty training set")
	}
	if t.Opts.K <= 0 {
		return nil, errors.New("ptshist: model size K must be positive")
	}
	stage := t.Log.Stage("sample_points")
	pts := t.SamplePoints(samples)
	stage.EndItems(int64(len(pts)))

	stage = t.Log.Stage("design_matrix")
	a := core.DesignMatrixPoints(samples, pts)
	s := core.Selectivities(samples)
	stage.EndItems(int64(a.Rows) * int64(a.Cols))

	stage = t.Log.Stage("solve")
	var w []float64
	var err error
	var sst solver.Stats
	if t.Opts.LInfObjective {
		w, err = lp.MinimaxWeights(a, s)
		sst.Method = "lp_minimax"
	} else {
		w, err = solver.WeightsWithStats(t.Opts.Solver, a, s, &sst)
	}
	stage.EndItems(int64(sst.Iterations))
	if err != nil {
		return nil, fmt.Errorf("ptshist: weight estimation: %w", err)
	}
	t.Log.SetSolver(sst.Method, sst.Iterations)
	return &Model{Points: pts, Weights: w}, nil
}

// SamplePoints runs the bucket-design phase alone (exposed for the bucket
// ablation benchmark).
func (t *Trainer) SamplePoints(samples []core.LabeledQuery) []geom.Point {
	r := rng.New(t.Opts.Seed)
	k := t.Opts.K
	frac := t.Opts.InteriorFraction
	if frac == 0 {
		frac = DefaultInteriorFraction
	}
	interior := int(frac * float64(k))
	pts := make([]geom.Point, 0, k)

	// Proportional shares with largest-remainder rounding so interior
	// points total exactly `interior`.
	total := 0.0
	for _, z := range samples {
		total += z.Sel
	}
	if total > 0 && interior > 0 {
		counts := apportion(samples, interior, total)
		for i, z := range samples {
			smp, ok := z.R.(geom.Sampler)
			if !ok {
				continue
			}
			for c := 0; c < counts[i]; c++ {
				p, ok := smp.Sample(r)
				if !ok {
					break
				}
				pts = append(pts, p)
			}
		}
	}
	// Remaining points uniform over the whole space.
	for len(pts) < k {
		p := make(geom.Point, t.Dim)
		for i := range p {
			p[i] = r.Float64()
		}
		pts = append(pts, p)
	}
	return pts
}

// apportion distributes `interior` points over queries proportionally to
// selectivity, exactly, by largest remainder.
func apportion(samples []core.LabeledQuery, interior int, total float64) []int {
	n := len(samples)
	counts := make([]int, n)
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, n)
	used := 0
	for i, z := range samples {
		exact := z.Sel / total * float64(interior)
		counts[i] = int(exact)
		used += counts[i]
		rems[i] = rem{idx: i, frac: exact - float64(counts[i])}
	}
	// Hand out the leftover to the largest remainders (stable by index
	// for determinism).
	for used < interior {
		best := -1
		for i := range rems {
			if rems[i].frac > 0 && (best < 0 || rems[i].frac > rems[best].frac) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		counts[rems[best].idx]++
		rems[best].frac = 0
		used++
	}
	return counts
}

// NumBuckets implements core.Model.
func (m *Model) NumBuckets() int { return len(m.Points) }

// Estimate implements core.Model: Equation 7, Σⱼ 1(Bⱼ ∈ R)·wⱼ.
func (m *Model) Estimate(r geom.Range) float64 {
	s := 0.0
	for j, p := range m.Points {
		if m.Weights[j] != 0 && r.Contains(p) {
			s += m.Weights[j]
		}
	}
	return core.Clamp01(s)
}

var _ core.Trainer = (*Trainer)(nil)
var _ core.Model = (*Model)(nil)
