package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/hist"
	"repro/internal/parallel"
)

// TestEstimateRangesIntoOneWorkerPoolZeroAlloc: at the default worker
// count on a one-worker pool (GOMAXPROCS 1, or -workers 1), a batch at
// the parallel threshold runs the inline serial loop, so the kernel
// allocates nothing — no pool task closure.
func TestEstimateRangesIntoOneWorkerPoolZeroAlloc(t *testing.T) {
	parallel.SetDefault(1)
	defer parallel.SetDefault(0)

	const side = 16
	m := &hist.Model{}
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			lo := geom.Point{float64(i) / side, float64(j) / side}
			hi := geom.Point{float64(i+1) / side, float64(j+1) / side}
			m.Buckets = append(m.Buckets, geom.NewBox(lo, hi))
			m.Weights = append(m.Weights, 1.0/(side*side))
		}
	}
	core.Accelerate(m)
	qs := make([]geom.Range, 64)
	for i := range qs {
		f := float64(i+1) / float64(len(qs)+1)
		qs[i] = geom.NewBox(geom.Point{f / 2, f / 3}, geom.Point{f, 1 - f/2})
	}
	out := make([]float64, len(qs))
	core.EstimateRangesInto(m, qs, 0, out)
	if allocs := testing.AllocsPerRun(100, func() { core.EstimateRangesInto(m, qs, 0, out) }); allocs != 0 {
		t.Fatalf("EstimateRangesInto on a one-worker pool allocates %.1f objects/op, want 0", allocs)
	}
}
