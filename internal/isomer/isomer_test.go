package isomer

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/hist"
	"repro/internal/workload"
)

func gen2D(seed uint64) *workload.Generator {
	return workload.NewGenerator(dataset.Power(6000, 1).Project([]int{0, 1}), seed)
}

func TestSplitAroundPartition(t *testing.T) {
	b := geom.NewBox(geom.Point{0, 0}, geom.Point{1, 1})
	q := geom.NewBox(geom.Point{0.25, 0.25}, geom.Point{0.75, 0.75})
	pieces := splitAround(b, q)
	total := 0.0
	for _, p := range pieces {
		total += p.Volume()
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("pieces cover %v of the bucket", total)
	}
	// Disjoint.
	for i := range pieces {
		for j := i + 1; j < len(pieces); j++ {
			if v := pieces[i].IntersectBoxVolume(pieces[j]); v > 1e-12 {
				t.Fatalf("pieces %d,%d overlap by %v", i, j, v)
			}
		}
	}
	// One piece equals the intersection.
	found := false
	for _, p := range pieces {
		if p.Equal(b.Intersect(q)) {
			found = true
		}
	}
	if !found {
		t.Fatal("intersection piece missing")
	}
}

func TestSplitAroundCorner(t *testing.T) {
	b := geom.NewBox(geom.Point{0, 0}, geom.Point{0.5, 0.5})
	q := geom.NewBox(geom.Point{0.25, 0.25}, geom.Point{1, 1})
	pieces := splitAround(b, q)
	total := 0.0
	for _, p := range pieces {
		total += p.Volume()
	}
	if math.Abs(total-0.25) > 1e-12 {
		t.Fatalf("pieces cover %v, want bucket volume 0.25", total)
	}
}

func TestTrainAccuracy(t *testing.T) {
	g := gen2D(42)
	spec := workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}
	train, test := g.TrainTest(spec, 80, 120)
	m, err := New(2).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	// ISOMER is the most accurate method in the paper; demand decent
	// held-out error and near-exact training consistency.
	if rms := core.RMS(m, test); rms > 0.1 {
		t.Fatalf("test RMS = %v", rms)
	}
	if rms := core.RMS(m, train); rms > 0.02 {
		t.Fatalf("train RMS = %v, max-entropy fit should be nearly consistent", rms)
	}
}

func TestBucketCountGrowsFast(t *testing.T) {
	// The paper reports ISOMER using 48–160× the training size in
	// buckets; our refinement should likewise be a large multiple.
	g := gen2D(1)
	spec := workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}
	train := g.Generate(spec, 60)
	m, err := New(2).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	model := m.(*hist.Model)
	if model.NumBuckets() < 10*len(train) {
		t.Fatalf("bucket count %d < 10× training size", model.NumBuckets())
	}
}

func TestWeightsOnSimplex(t *testing.T) {
	g := gen2D(2)
	train := g.Generate(workload.Spec{Class: workload.OrthogonalRange, Centers: workload.Gaussian}, 40)
	m, err := New(2).Train(train)
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
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", sum)
	}
}

func TestBudgetEnforced(t *testing.T) {
	g := gen2D(3)
	train := g.Generate(workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}, 400)
	tr := &Trainer{Dim: 2, Opts: Options{Budget: time.Microsecond}}
	_, err := tr.Train(train)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestRejectsNonBoxQueries(t *testing.T) {
	train := []core.LabeledQuery{{R: geom.NewBall(geom.Point{0.5, 0.5}, 0.1), Sel: 0.2}}
	if _, err := New(2).Train(train); err == nil {
		t.Fatal("ball query accepted")
	}
}

func TestMaxEntropyPrefersUniformWhereUnconstrained(t *testing.T) {
	// One query pinning the left half to 0.8: inside the halves the
	// distribution should stay volume-proportional (max entropy), i.e.
	// estimates for sub-boxes scale with their volume share.
	left := geom.NewBox(geom.Point{0, 0}, geom.Point{0.5, 1})
	train := []core.LabeledQuery{{R: left, Sel: 0.8}}
	m, err := New(2).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	if e := m.Estimate(left); math.Abs(e-0.8) > 0.01 {
		t.Fatalf("constrained estimate = %v, want 0.8", e)
	}
	// Quarter of the left half should carry half of the left mass.
	q := geom.NewBox(geom.Point{0, 0}, geom.Point{0.5, 0.5})
	if e := m.Estimate(q); math.Abs(e-0.4) > 0.01 {
		t.Fatalf("sub-box estimate = %v, want 0.4 (uniform within constraint)", e)
	}
	// Right half gets the remainder, uniformly.
	q2 := geom.NewBox(geom.Point{0.5, 0}, geom.Point{0.75, 1})
	if e := m.Estimate(q2); math.Abs(e-0.1) > 0.01 {
		t.Fatalf("right sub-box estimate = %v, want 0.1", e)
	}
}

func TestEstimateBounds(t *testing.T) {
	g := gen2D(4)
	spec := workload.Spec{Class: workload.OrthogonalRange, Centers: workload.Random}
	train, test := g.TrainTest(spec, 50, 100)
	m, err := New(2).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	for _, z := range test {
		e := m.Estimate(z.R)
		if e < 0 || e > 1 {
			t.Fatalf("estimate %v out of range", e)
		}
	}
}
