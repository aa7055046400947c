package bvh_test

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bvh"
	"repro/internal/geom"
	"repro/internal/rng"
)

// TestPointerQueriesMatchValueQueries: the serving wire decoder passes
// *geom.Box / *geom.Halfspace / *geom.Ball (pointers into pooled arenas)
// where offline callers pass values. The SoA walk dispatches boxes by
// type switch, so the pointer form must hit the same specialized path —
// this pins pointer and value estimates byte-identical across dims,
// classes, and degenerate (zero-volume) buckets.
func TestPointerQueriesMatchValueQueries(t *testing.T) {
	r := rng.New(99)
	for _, d := range []int{1, 2, 3, 5} {
		m := bvh.IndexThreshold * 4
		buckets, weights := randomBuckets(r, m, d)
		for i := 0; i < m/40+1; i++ {
			j, k := r.IntN(m), r.IntN(d)
			buckets[j].Hi[k] = buckets[j].Lo[k] // point mass
		}
		tr := bvh.Build(buckets, weights)
		for trial := 0; trial < 32; trial++ {
			var val, ptr geom.Range
			switch trial % 3 {
			case 0:
				q := randomQuery(r, d, 0).(geom.Box)
				val, ptr = q, &q
			case 1:
				q := randomQuery(r, d, 1).(geom.Ball)
				val, ptr = q, &q
			default:
				q := randomQuery(r, d, 2).(geom.Halfspace)
				val, ptr = q, &q
			}
			ev, ep := tr.Estimate(val), tr.Estimate(ptr)
			if ev != ep {
				t.Fatalf("d=%d %T: pointer estimate %v != value estimate %v", d, val, ep, ev)
			}
			fv, fp := bvh.EstimateFlat(buckets, weights, val), bvh.EstimateFlat(buckets, weights, ptr)
			if fv != fp {
				t.Fatalf("d=%d %T: flat pointer estimate %v != value estimate %v", d, val, fp, fv)
			}
			if math.Abs(ev-fv) > 1e-9*math.Max(1, math.Abs(fv)) {
				t.Fatalf("d=%d %T: bvh %v drifted from flat %v", d, val, ev, fv)
			}
		}
	}
}

// TestReweightConcurrentNoTear publishes Reweight copies through an
// atomic pointer while estimator goroutines hammer whatever tree is
// current — the copy-on-write contract internal/online relies on. Each
// published tree's whole-space estimate equals its own weight sum, so a
// torn read (estimate mixing two weight versions) produces a value
// outside the published set. Run under -race (scripts/verify.sh does) to
// also prove memory-model cleanliness of the shared structure arrays.
// The grid model's trees answer from their 2-D prefix-mass tables, the
// random buckets' trees from the walk.
func TestReweightConcurrentNoTear(t *testing.T) {
	r := rng.New(41)
	random, rw := randomBuckets(r, 512, 2)
	grid, gw := gridBuckets(r, 24)
	for _, in := range []struct {
		buckets []geom.Box
		w0      []float64
	}{{random, rw}, {grid, gw}} {
		reweightNoTear(t, r, in.buckets, in.w0)
	}
}

func reweightNoTear(t *testing.T, r *rng.RNG, buckets []geom.Box, w0 []float64) {
	m := len(buckets)
	base := bvh.Build(buckets, w0)

	// Precompute K weight versions and each version's expected estimate
	// for a fixed probe query.
	const versions = 16
	probe := geom.UnitCube(2)
	trees := make([]*bvh.Tree, versions)
	expect := make(map[float64]bool, versions)
	trees[0] = base
	expect[base.Estimate(probe)] = true
	for v := 1; v < versions; v++ {
		w := make([]float64, m)
		for i := range w {
			w[i] = w0[i] * (1 + 0.5*r.Float64())
		}
		trees[v] = base.Reweight(w)
		expect[trees[v].Estimate(probe)] = true
	}

	var cur atomic.Pointer[bvh.Tree]
	cur.Store(base)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got := cur.Load().Estimate(probe)
				if !expect[got] {
					t.Errorf("estimate %v matches no published weight version (torn read?)", got)
					return
				}
			}
		}()
	}
	for it := 0; it < 2000; it++ {
		cur.Store(trees[it%versions])
	}
	close(stop)
	wg.Wait()
}
