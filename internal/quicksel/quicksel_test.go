package quicksel

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/hist"
	"repro/internal/workload"
)

func gen2D(seed uint64) *workload.Generator {
	return workload.NewGenerator(dataset.Power(6000, 1).Project([]int{0, 1}), seed)
}

func TestBucketConvention(t *testing.T) {
	g := gen2D(42)
	train := g.Generate(workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}, 50)
	m, err := New(2, 7).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	// 4× queries + 1 background bucket.
	if got := m.NumBuckets(); got != 4*50+1 {
		t.Fatalf("bucket count %d, want %d", got, 4*50+1)
	}
}

func TestTrainAccuracy(t *testing.T) {
	g := gen2D(1)
	spec := workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}
	train, test := g.TrainTest(spec, 150, 150)
	m, err := New(2, 3).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	if rms := core.RMS(m, test); rms > 0.15 {
		t.Fatalf("test RMS = %v", rms)
	}
}

func TestWeightsOnSimplex(t *testing.T) {
	g := gen2D(2)
	train := g.Generate(workload.Spec{Class: workload.OrthogonalRange, Centers: workload.Gaussian}, 60)
	m, err := New(2, 5).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	model := m.(*hist.Model)
	sum := 0.0
	for _, w := range model.Weights {
		if w < -1e-12 {
			t.Fatalf("negative weight %v", w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("weights sum to %v", sum)
	}
}

func TestEstimateBoundsAndFullSpace(t *testing.T) {
	g := gen2D(3)
	spec := workload.Spec{Class: workload.OrthogonalRange, Centers: workload.Random}
	train, test := g.TrainTest(spec, 80, 150)
	m, err := New(2, 11).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	for _, z := range test {
		e := m.Estimate(z.R)
		if e < 0 || e > 1 {
			t.Fatalf("estimate %v out of range", e)
		}
	}
	if e := m.Estimate(geom.UnitCube(2)); math.Abs(e-1) > 1e-6 {
		t.Fatalf("unit-cube estimate = %v", e)
	}
}

func TestJitteredSubBoxStaysInside(t *testing.T) {
	b := geom.NewBox(geom.Point{0.2, 0.3}, geom.Point{0.8, 0.7})
	r := newTestRNG()
	for i := 0; i < 500; i++ {
		sub := jitteredSubBox(b, r)
		if !b.ContainsBox(sub) {
			t.Fatalf("sub-box %v escapes %v", sub, b)
		}
		if sub.Volume() <= 0 {
			t.Fatalf("degenerate sub-box %v", sub)
		}
	}
}

func TestDegenerateQueryBoxes(t *testing.T) {
	// Zero-width query boxes (equality predicates on a categorical
	// column collapse in older encodings) must not crash training.
	thin := geom.NewBox(geom.Point{0.5, 0}, geom.Point{0.5, 1})
	train := []core.LabeledQuery{
		{R: thin, Sel: 0.0},
		{R: geom.UnitCube(2), Sel: 1.0},
	}
	m, err := New(2, 13).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	if e := m.Estimate(geom.UnitCube(2)); math.Abs(e-1) > 1e-6 {
		t.Fatalf("estimate = %v", e)
	}
}

func TestEmptyTrainingSetFails(t *testing.T) {
	if _, err := New(2, 1).Train(nil); err == nil {
		t.Fatal("empty training set accepted")
	}
}

func TestHigherDimensions(t *testing.T) {
	ds := dataset.Forest(5000, 9).NumericProjection(5)
	g := workload.NewGenerator(ds, 21)
	spec := workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}
	train, test := g.TrainTest(spec, 120, 120)
	m, err := New(5, 23).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	if rms := core.RMS(m, test); rms > 0.25 {
		t.Fatalf("5D test RMS = %v", rms)
	}
}

// The exact KKT program fits the training selectivities (nearly) exactly
// and exposes QuickSel's signature flaw: weights can be negative, though
// estimates remain clamped to [0,1].
func TestExactQPFitsTrainingExactly(t *testing.T) {
	g := gen2D(7)
	spec := workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}
	train, test := g.TrainTest(spec, 60, 100)
	tr := &Trainer{Dim: 2, Opts: Options{Seed: 3, ExactQP: true}}
	m, err := tr.Train(train)
	if err != nil {
		t.Fatal(err)
	}
	model := m.(*hist.Model)
	// Sum-to-one holds exactly (it is one of the equality constraints).
	sum := 0.0
	negatives := 0
	for _, w := range model.Weights {
		sum += w
		if w < -1e-9 {
			negatives++
		}
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Fatalf("exact-QP weights sum to %v", sum)
	}
	// Training residual is tiny: the constraints force A·w = s. The
	// model's Estimate clamps, so evaluate the raw fitted values.
	worst := 0.0
	for _, z := range train {
		raw := 0.0
		for j, b := range model.Buckets {
			if v := b.Volume(); v > 0 {
				raw += z.R.IntersectBoxVolume(b) / v * model.Weights[j]
			}
		}
		if d := math.Abs(raw - z.Sel); d > worst {
			worst = d
		}
	}
	if worst > 1e-3 {
		t.Fatalf("exact-QP training L∞ = %v, want ≈0", worst)
	}
	// Estimates stay valid despite any negative weights.
	for _, z := range test {
		e := m.Estimate(z.R)
		if e < 0 || e > 1 {
			t.Fatalf("estimate %v out of [0,1]", e)
		}
	}
	t.Logf("exact-QP: %d/%d negative weights (the paper's validity criticism)", negatives, len(model.Weights))
}

// The default (simplex-constrained) mode generalizes at least comparably to
// the exact QP on held-out queries.
func TestExactQPVsDefaultGeneralization(t *testing.T) {
	g := gen2D(9)
	spec := workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}
	train, test := g.TrainTest(spec, 100, 150)
	def, err := New(2, 3).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := (&Trainer{Dim: 2, Opts: Options{Seed: 3, ExactQP: true}}).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	if core.RMS(def, test) > core.RMS(exact, test)+0.05 {
		t.Fatalf("default mode (%v) much worse than exact QP (%v)",
			core.RMS(def, test), core.RMS(exact, test))
	}
}
