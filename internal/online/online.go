// Package online is the microsecond feedback-to-model learning subsystem:
// it turns a single observed (query, selectivity) pair into a live model
// improvement with no retraining, the continuous-adaptation mode the
// online-learning selectivity line (arXiv:2607.02895) studies with regret
// bounds and "A Practical Theory of Generalization in Selectivity
// Learning" (arXiv:2409.07014) motivates under drifting workloads.
//
// The subsystem applies to the bucket-weight model families (QUADHIST,
// QUICKSEL, ISOMER — anything implementing core.Reweightable): bucket
// geometry and the BVH index structure are fixed at training time, so one
// feedback item reduces to a sparse update of the weight vector. An update
// is three steps, all O(touched buckets) except a final O(m) pass:
//
//  1. Coverage row: the fractional coverages aⱼ = vol(Bⱼ∩R)/vol(Bⱼ) of
//     the buckets the query overlaps, enumerated sparsely through the BVH
//     (disjoint subtrees pruned, contained subtrees enumerated without
//     classification).
//  2. Step: with prediction p = Σ aⱼwⱼ and observed selectivity s, either
//     a relaxed-Kaczmarz online-gradient step
//     wⱼ ← max(0, wⱼ − η·(p−s)·aⱼ/‖a‖²)
//     (projection onto the nonnegative orthant; η=1 would correct this
//     query's residual exactly), or a multiplicative-weights /
//     exponentiated-gradient step wⱼ ← wⱼ·exp(−η·(p−s)·aⱼ).
//  3. Mass restoration: rescale the whole vector to the training-time
//     total Σw (for the simplex-constrained solvers that total is 1), the
//     normalization half of the exponentiated-gradient update and a cheap
//     stand-in for the exact simplex projection the batch solvers enforce.
//
// Publication is copy-on-write: Apply never mutates the weights concurrent
// estimates are reading — it builds a fresh vector and hands back a new
// model via core.Reweightable.WithWeights, which shares the bucket
// geometry and BVH node structure and recomputes only the cached subtree
// sums. The serving layer publishes that model as a registry generation
// bump, so the estimate cache invalidates exactly and no reader ever sees
// a torn vector.
//
// Everything in this package is deterministic: a given feedback sequence
// applied to a given base model yields byte-identical weights regardless
// of what concurrent estimate traffic is doing (verified by the serve
// layer's determinism self-check).
package online

import (
	"fmt"
	"math"

	"repro/internal/bvh"
	"repro/internal/core"
	"repro/internal/geom"
)

// Rule selects the per-observation update rule.
type Rule int

const (
	// RuleGradient is the relaxed-Kaczmarz online-gradient step with
	// nonnegativity projection (the default). It can re-grow buckets the
	// solver zeroed out, which matters under workload drift.
	RuleGradient Rule = iota
	// RuleMultiplicative is the multiplicative-weights / exponentiated-
	// gradient step. Zero-weight buckets stay zero (the classic MW
	// property), so mass moves only within the solver's support.
	RuleMultiplicative
)

// String names the rule for flags and experiment output.
func (r Rule) String() string {
	switch r {
	case RuleGradient:
		return "gradient"
	case RuleMultiplicative:
		return "multiplicative"
	}
	return fmt.Sprintf("rule(%d)", int(r))
}

// ParseRule resolves a rule name as used by the selserve -online-rule flag.
func ParseRule(s string) (Rule, error) {
	switch s {
	case "", "gradient":
		return RuleGradient, nil
	case "multiplicative", "mw":
		return RuleMultiplicative, nil
	}
	return 0, fmt.Errorf("online: unknown rule %q (want gradient or multiplicative)", s)
}

// DefaultRate is the default learning rate η. For the gradient rule η is
// the fraction of this query's residual corrected per observation (1 =
// exact interpolation of the newest observation, Kaczmarz); 0.5 trades
// convergence speed against noise amplification on noisy feedback.
const DefaultRate = 0.5

// maxExponent clamps the multiplicative-weights exponent so a pathological
// learning rate cannot overflow exp.
const maxExponent = 30

// Options configures an Updater.
type Options struct {
	// Rule picks the update rule (RuleGradient by default).
	Rule Rule
	// Rate is the learning rate η (DefaultRate if zero or negative).
	Rate float64
}

func (o Options) withDefaults() Options {
	if o.Rate <= 0 {
		o.Rate = DefaultRate
	}
	return o
}

// Stats reports what one Apply call did.
type Stats struct {
	// Applied counts observations folded into the returned weights.
	Applied int
	// Skipped counts observations carrying no usable signal: the query
	// overlaps no bucket (the model family cannot express a correction)
	// or its label is outside [0,1].
	Skipped int
	// Drift is the L1 distance ‖w_new − w_old‖₁ the weight vector moved,
	// the magnitude the serving layer accumulates into its cumulative
	// weight-drift gauge.
	Drift float64
}

// Updater folds feedback observations into a Reweightable model family,
// publishing copy-on-write weight snapshots.
//
// An Updater is NOT safe for concurrent use: callers serialize Apply (the
// serving layer holds one per-model mutex around it). Concurrent Estimate
// traffic against the models it has produced is always safe — published
// models are immutable.
type Updater interface {
	// Apply folds the batch into the current weights and returns the
	// model to publish (sharing structure with the base model), or nil
	// when nothing was applied. On a non-nil return the Updater's own
	// state advances to the returned model, so the next Apply continues
	// from it.
	Apply(batch []core.LabeledQuery) (core.Model, Stats)
	// Model returns the model the Updater currently considers live: the
	// last Apply result, or the base model before any update.
	Model() core.Model
	// Rule reports the configured update rule.
	Rule() Rule
}

// ForModel returns an Updater for the model when its family supports
// online weight updates (it implements core.Reweightable and has at least
// one bucket), and ok=false otherwise — callers fall back to the full
// retrain path. The model must already obey the core.Model immutability
// contract; the Updater never mutates it.
func ForModel(m core.Model, opts Options) (Updater, bool) {
	rw, ok := m.(core.Reweightable)
	if !ok {
		return nil, false
	}
	buckets, weights := rw.WeightView()
	if len(buckets) == 0 || len(buckets) != len(weights) {
		return nil, false
	}
	sum0 := 0.0
	for _, w := range weights {
		sum0 += w
	}
	if sum0 <= 0 || math.IsNaN(sum0) || math.IsInf(sum0, 0) {
		return nil, false
	}
	u := &weightUpdater{
		cur:     rw,
		weights: weights,
		sum0:    sum0,
		opts:    opts.withDefaults(),
	}
	// Make the base model's own index hot so the first WithWeights result
	// is seeded (an O(m) reweight instead of a rebuild) and the first
	// estimate after a publish is already sub-linear.
	core.Accelerate(m)
	// Coverage rows read only the index's geometry, which every tree
	// reweighted from it shares, so the base model's index serves every
	// later model too. Models below bvh.IndexThreshold have none and
	// enumerate coverage with the flat scan.
	if im, ok := m.(indexed); ok {
		u.tree = im.IndexTree()
	}
	return u, true
}

// indexed is the model surface that exposes a built BVH index.
type indexed interface {
	IndexTree() *bvh.Tree
}

// weightUpdater implements Updater over a core.Reweightable family.
type weightUpdater struct {
	cur     core.Reweightable
	weights []float64 // cur's weight vector (never mutated in place)
	tree    *bvh.Tree // the base model's index, for coverage rows; nil = flat scan
	sum0    float64   // training-time total mass, restored after every batch
	opts    Options

	// Per-observation scratch, reused across Apply calls (the Updater is
	// single-writer by contract).
	touchIdx  []int
	touchFrac []float64
}

// Model implements Updater.
func (u *weightUpdater) Model() core.Model { return u.cur }

// Rule implements Updater.
func (u *weightUpdater) Rule() Rule { return u.opts.Rule }

// Apply implements Updater. The batch folds sequentially — each
// observation sees the effect of the previous one — and the result is
// published as one copy-on-write weight vector.
func (u *weightUpdater) Apply(batch []core.LabeledQuery) (core.Model, Stats) {
	var st Stats
	if len(batch) == 0 {
		return nil, st
	}
	w := make([]float64, len(u.weights))
	copy(w, u.weights)
	for _, z := range batch {
		if u.applyOne(w, z) {
			st.Applied++
		} else {
			st.Skipped++
		}
	}
	if st.Applied == 0 {
		return nil, st
	}
	if !restoreMass(w, u.sum0) {
		// Every weight collapsed to zero (or went non-finite): the update
		// destroyed the distribution, which a published model must never
		// be. Drop the batch; the retrain path remains the fallback.
		st.Skipped += st.Applied
		st.Applied = 0
		return nil, st
	}
	for i, wi := range w {
		st.Drift += math.Abs(wi - u.weights[i])
	}
	m := u.cur.WithWeights(w)
	u.cur = m.(core.Reweightable)
	u.weights = w
	return m, st
}

// applyOne folds one observation into w, reporting whether it carried
// signal.
func (u *weightUpdater) applyOne(w []float64, z core.LabeledQuery) bool {
	if math.IsNaN(z.Sel) || z.Sel < 0 || z.Sel > 1 {
		return false
	}
	buckets, _ := u.cur.WeightView()
	if z.R.Dim() != buckets[0].Dim() {
		return false
	}
	idx, frac := u.coverage(buckets, z.R)
	if len(idx) == 0 {
		return false
	}

	p, norm2 := 0.0, 0.0
	for k, j := range idx {
		p += frac[k] * w[j]
		norm2 += frac[k] * frac[k]
	}
	e := p - z.Sel
	switch u.opts.Rule {
	case RuleMultiplicative:
		for k, j := range idx {
			x := -u.opts.Rate * e * frac[k]
			if x > maxExponent {
				x = maxExponent
			} else if x < -maxExponent {
				x = -maxExponent
			}
			w[j] *= math.Exp(x)
		}
	default: // RuleGradient
		if norm2 == 0 {
			return false
		}
		step := u.opts.Rate * e / norm2
		for k, j := range idx {
			nw := w[j] - step*frac[k]
			if nw < 0 {
				nw = 0
			}
			w[j] = nw
		}
	}
	return true
}

// coverage enumerates the query's coverage row — the buckets it overlaps
// and their fractions — into the updater's reused scratch.
func (u *weightUpdater) coverage(buckets []geom.Box, r geom.Range) ([]int, []float64) {
	idx := u.touchIdx[:0]
	frac := u.touchFrac[:0]
	collect := func(j int, f float64) {
		idx = append(idx, j)
		frac = append(frac, f)
	}
	if u.tree != nil {
		u.tree.ForEachOverlap(r, collect)
	} else {
		bvh.ForEachOverlapFlat(buckets, r, collect)
	}
	u.touchIdx, u.touchFrac = idx, frac
	return idx, frac
}

// restoreMass rescales w so Σw = sum0, reporting false when the vector has
// degenerated (non-positive or non-finite total).
func restoreMass(w []float64, sum0 float64) bool {
	total := 0.0
	for _, wi := range w {
		total += wi
	}
	if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		return false
	}
	scale := sum0 / total
	for i := range w {
		w[i] *= scale
	}
	return true
}
