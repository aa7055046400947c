// Package isomer implements the ISOMER baseline (Srivastava et al., ICDE
// 2006) used in the paper's comparisons: a query-feedback histogram whose
// buckets are created by refining the space along observed query boundaries
// (STHoles-style) and whose bucket weights are the maximum-entropy
// distribution consistent with all observed query selectivities, fit by
// iterative proportional scaling.
//
// Deviation from the original, documented in DESIGN.md: instead of STHoles'
// nested buckets-with-holes we maintain an equivalent flat partition into
// disjoint boxes, splitting every bucket that partially overlaps an
// incoming query into its intersection and complement pieces. This
// reproduces the behaviours the paper measures — the best accuracy of the
// compared methods, a bucket count that is a large multiple of the query
// count, and training cost that blows up with workload size (the paper cut
// ISOMER off at 500 training queries / 30 minutes; we enforce a
// configurable budget and report the same "-" rows).
package isomer

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/hist"
	"repro/internal/obs"
)

// ErrBudget is returned when training exceeds the configured budget, the
// analogue of the paper's 30-minute cutoff.
var ErrBudget = errors.New("isomer: training budget exceeded")

// opsPerSecond converts a time-denominated budget into deterministic
// work units (one unit ≈ one bucket visit or one scaling-row update).
// The constant is a fixed calibration — roughly what one 2020s core
// sustains on this workload — NOT a clock: the same workload exhausts
// the same budget at exactly the same point on every machine and every
// run, which keeps the paper's cutoff rows ("-") reproducible.
const opsPerSecond = 50e6

// Options configures ISOMER training.
type Options struct {
	// Budget bounds training cost, expressed as a duration for
	// continuity with the paper's 30-minute cutoff (default 30s). It is
	// enforced deterministically: the duration is converted to work
	// units via the fixed opsPerSecond calibration, so whether a run
	// hits the cutoff depends only on the workload, never on the
	// machine or scheduler.
	Budget time.Duration
}

// maxBuckets caps the partition size. The original chooses its own
// bucket count; the paper reports 48–160× the query count.
const maxBuckets = 20000

// scalingIters bounds iterative-scaling sweeps.
const scalingIters = 200

// workBudget meters deterministic training cost. spend reports whether
// the budget still covers n more units.
type workBudget struct{ left int64 }

func newWorkBudget(d time.Duration) *workBudget {
	if d == 0 {
		d = 30 * time.Second
	}
	return &workBudget{left: int64(d.Seconds() * opsPerSecond)}
}

func (b *workBudget) spend(n int64) bool {
	b.left -= n
	return b.left >= 0
}

// Trainer builds ISOMER models.
type Trainer struct {
	Dim  int
	Opts Options
	// Log, when non-nil, collects per-stage timings and solver iteration
	// counts (and mirrors the stages as trace spans); see obs.TrainLog.
	Log *obs.TrainLog
}

// New returns an ISOMER trainer with defaults.
func New(dim int) *Trainer { return &Trainer{Dim: dim} }

// Name implements core.Trainer.
func (t *Trainer) Name() string { return "Isomer" }

// Train implements core.Trainer. The model is a hist.Model of family
// hist.Isomer: a disjoint box partition with maximum-entropy weights
// (ISOMER's partitions run to 48–160× the query count, so nearly every
// trained model is BVH-indexed). Queries must be boxes (ISOMER is an
// orthogonal-range method; the paper compares it only there).
func (t *Trainer) Train(samples []core.LabeledQuery) (core.Model, error) {
	if err := core.CheckFiniteSelectivities(samples); err != nil {
		return nil, fmt.Errorf("isomer: %w", err)
	}
	budget := newWorkBudget(t.Opts.Budget)

	boxes := make([]geom.Box, len(samples))
	for i, z := range samples {
		b, ok := z.R.(geom.Box)
		if !ok {
			return nil, errors.New("isomer: orthogonal range queries only")
		}
		boxes[i] = b
	}

	// Phase 1: bucket construction by flat query-boundary refinement.
	stage := t.Log.Stage("bucket_refine")
	buckets := []geom.Box{geom.UnitCube(t.Dim)}
	for _, q := range boxes {
		if !budget.spend(int64(len(buckets))) {
			stage.EndItems(int64(len(buckets)))
			return nil, ErrBudget
		}
		if len(buckets) >= maxBuckets {
			break
		}
		next := buckets[:0:0]
		for _, b := range buckets {
			if len(buckets)+len(next) > maxBuckets+64 || !b.IntersectsBox(q) || q.ContainsBox(b) {
				next = append(next, b)
				continue
			}
			next = append(next, splitAround(b, q)...)
		}
		buckets = next
	}
	stage.EndItems(int64(len(buckets)))

	// Phase 2: maximum-entropy weights by iterative proportional scaling.
	stage = t.Log.Stage("iterative_scaling")
	w, sweeps, err := maxEntropyWeights(buckets, samples, scalingIters, budget)
	stage.EndItems(int64(sweeps))
	if err != nil {
		return nil, err
	}
	t.Log.SetSolver("iterative_scaling", sweeps)
	return &hist.Model{Buckets: buckets, Weights: w, Family: hist.Isomer}, nil
}

// splitAround partitions bucket b into b∩q plus the complement slabs — the
// standard box-difference decomposition (≤ 2d+1 disjoint pieces).
func splitAround(b, q geom.Box) []geom.Box {
	pieces := make([]geom.Box, 0, 2*b.Dim()+1)
	cur := b.Clone()
	for i := 0; i < b.Dim(); i++ {
		if cur.Lo[i] < q.Lo[i] {
			piece := cur.Clone()
			piece.Hi[i] = q.Lo[i]
			if !piece.Empty() && piece.Volume() > 0 {
				pieces = append(pieces, piece)
			}
			cur.Lo[i] = q.Lo[i]
		}
		if cur.Hi[i] > q.Hi[i] {
			piece := cur.Clone()
			piece.Lo[i] = q.Hi[i]
			if !piece.Empty() && piece.Volume() > 0 {
				pieces = append(pieces, piece)
			}
			cur.Hi[i] = q.Hi[i]
		}
	}
	if !cur.Empty() && cur.Volume() > 0 {
		pieces = append(pieces, cur) // the intersection piece
	}
	return pieces
}

// maxEntropyWeights runs generalized iterative scaling: starting from the
// uniform (volume-proportional) distribution — the entropy maximizer — each
// sweep rescales the mass inside every query region so its selectivity
// matches the feedback, then renormalizes. For feasible constraint sets
// this converges to the maximum-entropy consistent distribution. The second
// return value is the number of sweeps that ran (for TrainStats).
func maxEntropyWeights(buckets []geom.Box, samples []core.LabeledQuery, iters int, budget *workBudget) ([]float64, int, error) {
	n := len(buckets)
	m := len(samples)
	// Fraction of bucket j inside query i, stored sparsely per query.
	// full marks buckets entirely inside the query, whose mass scales as
	// a unit (no fractional split).
	type entry struct {
		j    int
		frac float64
		full bool
	}
	rows := make([][]entry, m)
	for i, z := range samples {
		for j, b := range buckets {
			if !z.R.IntersectsBox(b) {
				continue
			}
			var f float64
			full := false
			if z.R.ContainsBox(b) {
				f = 1
				full = true
			} else {
				v := b.Volume()
				if v == 0 {
					continue
				}
				f = z.R.IntersectBoxVolume(b) / v
			}
			if f > 0 {
				rows[i] = append(rows[i], entry{j: j, frac: f, full: full})
			}
		}
		if !budget.spend(int64(n)) {
			return nil, 0, ErrBudget
		}
	}

	w := make([]float64, n)
	for j, b := range buckets {
		w[j] = b.Volume()
	}
	normalizeTo1(w)

	const floor = 1e-6
	sweeps := 0
	for sweep := 0; sweep < iters; sweep++ {
		sweeps = sweep + 1
		sweepCost := int64(0)
		for _, r := range rows {
			sweepCost += int64(len(r)) + 1
		}
		if !budget.spend(sweepCost) {
			return nil, sweeps, ErrBudget
		}
		worst := 0.0
		for i, z := range samples {
			target := math.Min(math.Max(z.Sel, floor), 1-floor)
			cur := 0.0
			for _, e := range rows[i] {
				cur += e.frac * w[e.j]
			}
			cur = math.Min(math.Max(cur, floor), 1-floor)
			worst = math.Max(worst, math.Abs(cur-target))
			// Scale inside mass by r and outside by matching factor so
			// the constraint holds exactly after renormalization.
			r := target * (1 - cur) / (cur * (1 - target))
			if math.Abs(r-1) < 1e-12 {
				continue
			}
			for _, e := range rows[i] {
				if e.full {
					w[e.j] *= r
				} else {
					// Fractional overlap: split the bucket's mass
					// proportionally by volume fraction.
					in := w[e.j] * e.frac
					out := w[e.j] - in
					w[e.j] = in*r + out
				}
			}
			normalizeTo1(w)
		}
		if worst < 1e-6 {
			break
		}
	}
	return w, sweeps, nil
}

func normalizeTo1(w []float64) {
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	if sum <= 0 {
		u := 1.0 / float64(len(w))
		for i := range w {
			w[i] = u
		}
		return
	}
	for i := range w {
		w[i] /= sum
	}
}

var _ core.Trainer = (*Trainer)(nil)
