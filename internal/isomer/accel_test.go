package isomer

import (
	"math"
	"testing"

	"repro/internal/bvh"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/hist"
	"repro/internal/workload"
)

// A trained ISOMER model (large disjoint partition) must estimate
// identically through its BVH and the flat kernel, and implement the
// core.Accelerable capability.
func TestTrainedModelAcceleratedMatchesFlat(t *testing.T) {
	ds := dataset.Power(4000, 1).Project([]int{0, 1})
	g := workload.NewGenerator(ds, 17)
	train, test := g.TrainTest(workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}, 120, 60)
	mm, err := New(2).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	m := mm.(*hist.Model)
	if m.NumBuckets() < bvh.IndexThreshold {
		t.Fatalf("fixture too small to exercise the BVH path: %d buckets", m.NumBuckets())
	}
	if !core.Accelerate(m) {
		t.Fatal("isomer model does not implement core.Accelerable")
	}
	for _, z := range test {
		want := bvh.EstimateFlat(m.Buckets, m.Weights, z.R)
		if got := m.Estimate(z.R); math.Abs(got-want) > 1e-9 {
			t.Fatalf("accelerated estimate %v != flat %v for %v", got, want, z.R)
		}
	}
	// Non-box query classes prune through the same index.
	for _, q := range []geom.Range{
		geom.NewBall(geom.Point{0.4, 0.6}, 0.2),
		geom.NewHalfspace(geom.Point{1, -0.5}, 0.1),
	} {
		want := bvh.EstimateFlat(m.Buckets, m.Weights, q)
		if got := m.Estimate(q); math.Abs(got-want) > 1e-9 {
			t.Fatalf("accelerated estimate %v != flat %v for %v", got, want, q)
		}
	}
}
