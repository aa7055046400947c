package hist

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/quadtree"
	"repro/internal/rng"
	"repro/internal/workload"
)

// probeSearchTau is the bisection SearchTau replaced: each probe builds the
// tree at τ, capped at maxBuckets + 2^d leaves. SearchTau must return its
// bits.
func probeSearchTau(dim int, samples []quadtree.Sample, maxBuckets int) float64 {
	lo, hi := 1e-7, 1.0
	leavesAt := func(tau float64) int {
		t := quadtree.BuildFromQueries(dim, samples, tau,
			quadtree.WithMaxLeaves(maxBuckets+(1<<uint(dim))))
		return t.NumLeaves()
	}
	if leavesAt(lo) <= maxBuckets {
		return lo
	}
	for iter := 0; iter < 40 && hi/lo > 1.001; iter++ {
		mid := math.Sqrt(lo * hi)
		if leavesAt(mid) <= maxBuckets {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// TestSearchTauMatchesProbeBuilds: on random workloads of every range
// class in d = 1–3, with tied selectivities and caps from 1 to 800,
// SearchTau returns the probe-build bisection's τ bit for bit.
func TestSearchTauMatchesProbeBuilds(t *testing.T) {
	r := rng.New(24)
	classes := []workload.Class{workload.OrthogonalRange, workload.Halfspace, workload.Ball}
	centers := []workload.Centers{workload.DataDriven, workload.Random, workload.Gaussian}
	var ds [4]*dataset.Dataset
	for d := 1; d <= 3; d++ {
		dims := []int{0, 1, 2}[:d]
		ds[d] = dataset.Power(300, uint64(d)).Project(dims)
	}
	balls3D := 0
	for trial := 0; trial < 520; trial++ {
		dim := 1 + r.IntN(3)
		class := classes[r.IntN(len(classes))]
		n := 2 + r.IntN(30)
		maxBuckets := 1 + int(math.Exp(r.Float64()*math.Log(800)))
		switch trial {
		case 0:
			maxBuckets = 1
		case 1:
			maxBuckets = 800
		}
		if dim == 3 && class == workload.Ball {
			// Ball volumes in 3-D come from QMC, so keep these few and
			// small.
			if balls3D++; balls3D > 5 {
				class = workload.OrthogonalRange
			} else {
				n, maxBuckets = 2+r.IntN(3), 1+r.IntN(40)
			}
		}
		g := workload.NewGenerator(ds[dim], uint64(1000+trial))
		samples := g.Generate(workload.Spec{Class: class, Centers: centers[r.IntN(len(centers))]}, n)
		if trial%3 == 0 {
			// Tied labels: equal selectivities make equal node scores
			// wherever queries repeat or share dyadic geometry.
			ties := []float64{0.05, 0.125, 0.5}
			for i := range samples {
				samples[i].Sel = ties[r.IntN(len(ties))]
			}
			samples = append(samples, samples[:n/2]...)
		}
		qs := makeQuadSamples(samples, dim)
		want := probeSearchTau(dim, qs, maxBuckets)
		if got := SearchTau(dim, qs, maxBuckets); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (d=%d %v, %d queries, cap %d): SearchTau = %v, probe builds give %v",
				trial, dim, class, len(samples), maxBuckets, got, want)
		}
	}
}

// TestSearchTauMatchesProbeBuildsTrainSize: the same bits at the
// benchmark's training size, 2,000 data-driven ranges on Power-2D with a
// cap of 2,000 buckets.
func TestSearchTauMatchesProbeBuildsTrainSize(t *testing.T) {
	ds := dataset.Power(dataset.DefaultPowerSize, 1).Project([]int{0, 1})
	spec := workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}
	samples := workload.NewGenerator(ds, 4401001).Generate(spec, 2000)
	qs := makeQuadSamples(samples, 2)
	want := probeSearchTau(2, qs, 2000)
	if got := SearchTau(2, qs, 2000); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("SearchTau = %v, probe builds give %v", got, want)
	}
}
