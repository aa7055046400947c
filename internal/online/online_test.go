package online_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/hist"
	"repro/internal/isomer"
	"repro/internal/online"
	"repro/internal/quicksel"
	"repro/internal/rng"
)

// gridModel builds a k×k QUADHIST model directly (deterministic weights),
// large enough for the BVH-indexed coverage path when k*k exceeds the
// threshold.
func gridModel(k int) *hist.Model {
	n := k * k
	buckets := make([]geom.Box, 0, n)
	weights := make([]float64, 0, n)
	step := 1.0 / float64(k)
	total := 0.0
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			lo := geom.Point{float64(i) * step, float64(j) * step}
			hi := geom.Point{lo[0] + step, lo[1] + step}
			buckets = append(buckets, geom.Box{Lo: lo, Hi: hi})
			w := 1 + math.Sin(float64(i*31+j))*0.5
			weights = append(weights, w)
			total += w
		}
	}
	for i := range weights {
		weights[i] /= total
	}
	return &hist.Model{Buckets: buckets, Weights: weights}
}

func randomBox(r *rng.RNG) geom.Box {
	lo := make(geom.Point, 2)
	hi := make(geom.Point, 2)
	for j := 0; j < 2; j++ {
		a, b := r.Float64(), r.Float64()
		lo[j], hi[j] = min(a, b), max(a, b)
	}
	return geom.Box{Lo: lo, Hi: hi}
}

func sum(w []float64) float64 {
	s := 0.0
	for _, v := range w {
		s += v
	}
	return s
}

// TestUpdateReducesError: one update must move the prediction toward the
// observed selectivity, for both rules, without overshooting past it.
func TestUpdateReducesError(t *testing.T) {
	for _, rule := range []online.Rule{online.RuleGradient, online.RuleMultiplicative} {
		t.Run(rule.String(), func(t *testing.T) {
			m := gridModel(20)
			u, ok := online.ForModel(m, online.Options{Rule: rule, Rate: 0.5})
			if !ok {
				t.Fatal("ForModel rejected a hist model")
			}
			q := geom.Box{Lo: geom.Point{0.1, 0.1}, Hi: geom.Point{0.6, 0.6}}
			before := m.Estimate(q)
			target := core.Clamp01(before + 0.2)
			nm, st := u.Apply([]core.LabeledQuery{{R: q, Sel: target}})
			if nm == nil || st.Applied != 1 {
				t.Fatalf("update not applied: model=%v stats=%+v", nm, st)
			}
			after := nm.Estimate(q)
			if math.Abs(after-target) >= math.Abs(before-target) {
				t.Fatalf("rule %v did not reduce error: before=%v after=%v target=%v",
					rule, before, after, target)
			}
			if st.Drift <= 0 {
				t.Fatalf("applied update reported zero drift")
			}
		})
	}
}

// TestRepeatedFeedbackConverges: hammering the same observation must drive
// the prediction to it (the Kaczmarz fixed point), for both rules.
func TestRepeatedFeedbackConverges(t *testing.T) {
	for _, rule := range []online.Rule{online.RuleGradient, online.RuleMultiplicative} {
		t.Run(rule.String(), func(t *testing.T) {
			m := gridModel(20)
			u, _ := online.ForModel(m, online.Options{Rule: rule, Rate: 0.5})
			q := geom.Box{Lo: geom.Point{0.2, 0.2}, Hi: geom.Point{0.7, 0.7}}
			target := core.Clamp01(m.Estimate(q) + 0.15)
			var last core.Model = m
			for i := 0; i < 200; i++ {
				nm, _ := u.Apply([]core.LabeledQuery{{R: q, Sel: target}})
				if nm != nil {
					last = nm
				}
			}
			if got := last.Estimate(q); math.Abs(got-target) > 0.02 {
				t.Fatalf("rule %v did not converge: got %v want %v", rule, got, target)
			}
		})
	}
}

// TestMassAndNonnegativityPreserved: after any update stream, weights stay
// nonnegative and total mass stays at the training-time total.
func TestMassAndNonnegativityPreserved(t *testing.T) {
	for _, rule := range []online.Rule{online.RuleGradient, online.RuleMultiplicative} {
		t.Run(rule.String(), func(t *testing.T) {
			m := gridModel(16)
			sum0 := sum(m.Weights)
			u, _ := online.ForModel(m, online.Options{Rule: rule, Rate: 1.5})
			r := rng.New(42)
			var cur core.Model = m
			for i := 0; i < 300; i++ {
				nm, _ := u.Apply([]core.LabeledQuery{{R: randomBox(r), Sel: r.Float64()}})
				if nm != nil {
					cur = nm
				}
			}
			hm := cur.(*hist.Model)
			for j, w := range hm.Weights {
				if w < 0 || math.IsNaN(w) {
					t.Fatalf("weight %d invalid after updates: %v", j, w)
				}
			}
			if got := sum(hm.Weights); math.Abs(got-sum0) > 1e-9 {
				t.Fatalf("mass drifted: %v vs %v", got, sum0)
			}
		})
	}
}

// TestBaseModelUndisturbed: COW means the base model's weights and
// estimates are bit-identical after arbitrarily many updates.
func TestBaseModelUndisturbed(t *testing.T) {
	m := gridModel(20)
	w0 := make([]float64, len(m.Weights))
	copy(w0, m.Weights)
	q := geom.Box{Lo: geom.Point{0.3, 0.1}, Hi: geom.Point{0.8, 0.9}}
	before := m.Estimate(q)

	u, _ := online.ForModel(m, online.Options{})
	r := rng.New(7)
	for i := 0; i < 100; i++ {
		u.Apply([]core.LabeledQuery{{R: randomBox(r), Sel: r.Float64()}})
	}
	for j := range w0 {
		if m.Weights[j] != w0[j] {
			t.Fatalf("base model weight %d mutated by online updates", j)
		}
	}
	if got := m.Estimate(q); got != before {
		t.Fatalf("base model estimate changed: %v vs %v", got, before)
	}
}

// TestStructureShared: the updated model must share bucket-slice backing
// with the base model (geometry COW, no copies per update).
func TestStructureShared(t *testing.T) {
	m := gridModel(20)
	u, _ := online.ForModel(m, online.Options{})
	q := geom.Box{Lo: geom.Point{0.1, 0.1}, Hi: geom.Point{0.5, 0.5}}
	nm, _ := u.Apply([]core.LabeledQuery{{R: q, Sel: 0.5}})
	if nm == nil {
		t.Fatal("update not applied")
	}
	hm := nm.(*hist.Model)
	if &hm.Buckets[0] != &m.Buckets[0] {
		t.Fatal("updated model does not share bucket geometry with base")
	}
	if &hm.Weights[0] == &m.Weights[0] {
		t.Fatal("updated model shares weight backing with base (not COW)")
	}
}

// TestSmallModelFlatPath: below the BVH threshold the updater uses the
// flat coverage scan and must behave identically in contract terms.
func TestSmallModelFlatPath(t *testing.T) {
	m := gridModel(4) // 16 buckets, below IndexThreshold
	u, ok := online.ForModel(m, online.Options{})
	if !ok {
		t.Fatal("ForModel rejected small model")
	}
	q := geom.Box{Lo: geom.Point{0, 0}, Hi: geom.Point{0.5, 0.5}}
	target := core.Clamp01(m.Estimate(q) + 0.1)
	nm, st := u.Apply([]core.LabeledQuery{{R: q, Sel: target}})
	if nm == nil || st.Applied != 1 {
		t.Fatalf("flat-path update not applied: %+v", st)
	}
	if math.Abs(nm.Estimate(q)-target) >= math.Abs(m.Estimate(q)-target) {
		t.Fatal("flat-path update did not reduce error")
	}
}

// TestFoldGranularities: the same stream applied item-by-item and as one
// batch renormalizes at different points (so weights legitimately differ),
// but both folds must preserve total mass exactly, keep weights
// nonnegative, and land within converged distance of each other on a
// repeatedly-observed query. The coverage-row exactness of the indexed
// path versus the flat scan is property-tested in internal/bvh.
func TestFoldGranularities(t *testing.T) {
	m1 := gridModel(20)
	m2 := gridModel(20)
	sum0 := sum(m1.Weights)
	u1, _ := online.ForModel(m1, online.Options{Rate: 0.7})
	u2, _ := online.ForModel(m2, online.Options{Rate: 0.7})
	r := rng.New(1234)
	q := geom.Box{Lo: geom.Point{0.25, 0.25}, Hi: geom.Point{0.75, 0.75}}
	stream := make([]core.LabeledQuery, 150)
	for i := range stream {
		if i%3 == 0 {
			stream[i] = core.LabeledQuery{R: q, Sel: 0.4}
		} else {
			stream[i] = core.LabeledQuery{R: randomBox(r), Sel: r.Float64()}
		}
	}
	var f1, f2 core.Model
	for _, z := range stream {
		if nm, _ := u1.Apply([]core.LabeledQuery{{R: z.R, Sel: z.Sel}}); nm != nil {
			f1 = nm
		}
	}
	if nm, _ := u2.Apply(stream); nm != nil {
		f2 = nm
	}
	h1, h2 := f1.(*hist.Model), f2.(*hist.Model)
	for _, h := range []*hist.Model{h1, h2} {
		if got := sum(h.Weights); math.Abs(got-sum0) > 1e-9 {
			t.Fatalf("fold did not preserve mass: %v vs %v", got, sum0)
		}
		for j, w := range h.Weights {
			if w < 0 || math.IsNaN(w) {
				t.Fatalf("fold produced invalid weight %d: %v", j, w)
			}
		}
	}
	if e1, e2 := h1.Estimate(q), h2.Estimate(q); math.Abs(e1-e2) > 0.1 {
		t.Fatalf("folds disagree on the repeated query: %v vs %v", e1, e2)
	}
}

// TestDeterministicFold: the same stream applied twice to identical base
// models yields byte-identical final weights.
func TestDeterministicFold(t *testing.T) {
	run := func() []float64 {
		m := gridModel(20)
		u, _ := online.ForModel(m, online.Options{Rule: online.RuleMultiplicative, Rate: 0.6})
		r := rng.New(99)
		var cur core.Model = m
		for i := 0; i < 120; i++ {
			if nm, _ := u.Apply([]core.LabeledQuery{{R: randomBox(r), Sel: r.Float64()}}); nm != nil {
				cur = nm
			}
		}
		return cur.(*hist.Model).Weights
	}
	w1, w2 := run(), run()
	for j := range w1 {
		if w1[j] != w2[j] {
			t.Fatalf("weight %d not deterministic: %v vs %v", j, w1[j], w2[j])
		}
	}
}

// TestSkipPolicy: out-of-range labels and zero-coverage queries are
// skipped, never applied, and a batch of only skips publishes nothing.
func TestSkipPolicy(t *testing.T) {
	m := gridModel(10)
	u, _ := online.ForModel(m, online.Options{})
	// Query box entirely outside [0,1]^2 overlaps nothing.
	far := geom.Box{Lo: geom.Point{2, 2}, Hi: geom.Point{3, 3}}
	nm, st := u.Apply([]core.LabeledQuery{
		{R: far, Sel: 0.5},
		{R: geom.UnitCube(2), Sel: 1.5},
		{R: geom.UnitCube(2), Sel: -0.1},
		{R: geom.UnitCube(2), Sel: math.NaN()},
	})
	if nm != nil {
		t.Fatal("skip-only batch published a model")
	}
	if st.Applied != 0 || st.Skipped != 4 {
		t.Fatalf("skip accounting wrong: %+v", st)
	}
}

// TestDimensionMismatchSkipped: a query of the wrong dimensionality is a
// skip, not a panic.
func TestDimensionMismatchSkipped(t *testing.T) {
	m := gridModel(10)
	u, _ := online.ForModel(m, online.Options{})
	q3 := geom.Box{Lo: geom.Point{0, 0, 0}, Hi: geom.Point{1, 1, 1}}
	nm, st := u.Apply([]core.LabeledQuery{{R: q3, Sel: 0.5}})
	if nm != nil || st.Skipped != 1 {
		t.Fatalf("dimension mismatch not skipped: %+v", st)
	}
}

// TestQuickselSupported: the QUICKSEL family (overlapping buckets) and
// the ISOMER family (a maximum-entropy partition) take online updates
// through the same interface.
func TestQuickselSupported(t *testing.T) {
	r := rng.New(3)
	samples := make([]core.LabeledQuery, 40)
	for i := range samples {
		samples[i] = core.LabeledQuery{R: randomBox(r), Sel: r.Float64() * 0.5}
	}
	for _, tr := range []core.Trainer{quicksel.New(2, 17), isomer.New(2)} {
		m, err := tr.Train(samples)
		if err != nil {
			t.Fatal(err)
		}
		u, ok := online.ForModel(m, online.Options{})
		if !ok {
			t.Fatalf("ForModel rejected a %s model", tr.Name())
		}
		q := geom.Box{Lo: geom.Point{0.2, 0.2}, Hi: geom.Point{0.8, 0.8}}
		before := m.Estimate(q)
		target := core.Clamp01(before + 0.2)
		nm, st := u.Apply([]core.LabeledQuery{{R: q, Sel: target}})
		if nm == nil || st.Applied != 1 {
			t.Fatalf("%s update not applied: %+v", tr.Name(), st)
		}
		if nm.(*hist.Model).Family != m.(*hist.Model).Family {
			t.Fatalf("%s update changed the model family", tr.Name())
		}
		if math.Abs(nm.Estimate(q)-target) >= math.Abs(before-target) {
			t.Fatalf("%s update did not reduce error", tr.Name())
		}
	}
}

// TestForModelRejections: non-reweightable models and empty batches are
// rejected cleanly.
func TestForModelRejections(t *testing.T) {
	if _, ok := online.ForModel(nonReweightable{}, online.Options{}); ok {
		t.Fatal("ForModel accepted a non-reweightable model")
	}
	m := gridModel(8)
	u, _ := online.ForModel(m, online.Options{})
	if nm, st := u.Apply(nil); nm != nil || st.Applied != 0 {
		t.Fatal("empty batch produced an update")
	}
	if u.Model() != m {
		t.Fatal("Model() before any update is not the base model")
	}
}

type nonReweightable struct{}

func (nonReweightable) Estimate(geom.Range) float64 { return 0 }
func (nonReweightable) NumBuckets() int             { return 0 }

// TestParseRule round-trips the flag values.
func TestParseRule(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want online.Rule
	}{{"", online.RuleGradient}, {"gradient", online.RuleGradient},
		{"multiplicative", online.RuleMultiplicative}, {"mw", online.RuleMultiplicative}} {
		got, err := online.ParseRule(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseRule(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := online.ParseRule("nonsense"); err == nil {
		t.Fatal("ParseRule accepted nonsense")
	}
}
