package quicksel

import (
	"math"
	"testing"

	"repro/internal/bvh"
	"repro/internal/core"
	"repro/internal/hist"
	"repro/internal/workload"
)

// A trained QUICKSEL model (overlapping buckets) must estimate
// identically through its BVH and the flat kernel, and implement the
// core.Accelerable capability.
func TestTrainedModelAcceleratedMatchesFlat(t *testing.T) {
	g := gen2D(23)
	train, test := g.TrainTest(workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}, 80, 60)
	mm, err := New(2, 23).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	m := mm.(*hist.Model)
	if m.NumBuckets() < bvh.IndexThreshold {
		t.Fatalf("fixture too small to exercise the BVH path: %d buckets", m.NumBuckets())
	}
	if !core.Accelerate(m) {
		t.Fatal("quicksel model does not implement core.Accelerable")
	}
	for _, z := range test {
		want := bvh.EstimateFlat(m.Buckets, m.Weights, z.R)
		if got := m.Estimate(z.R); math.Abs(got-want) > 1e-9 {
			t.Fatalf("accelerated estimate %v != flat %v for %v", got, want, z.R)
		}
	}
}
