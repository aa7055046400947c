package bvh_test

import (
	"math"
	"sort"
	"testing"

	"repro/internal/bvh"
	"repro/internal/geom"
	"repro/internal/rng"
)

// randomQueryBox draws a query box over [0,1]^d.
func randomQueryBox(r *rng.RNG, d int) geom.Box {
	lo := make(geom.Point, d)
	hi := make(geom.Point, d)
	for j := 0; j < d; j++ {
		a, b := r.Float64(), r.Float64()
		lo[j], hi[j] = min(a, b), max(a, b)
	}
	return geom.Box{Lo: lo, Hi: hi}
}

// gridBuckets partitions [0,1]² into k×k equal cells with random
// weights, about a third of them exactly zero: a model the 2-D table
// serves, unlike randomBuckets' overlapping boxes.
func gridBuckets(r *rng.RNG, k int) ([]geom.Box, []float64) {
	buckets := make([]geom.Box, 0, k*k)
	weights := make([]float64, 0, k*k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			buckets = append(buckets, geom.NewBox(
				geom.Point{float64(i) / float64(k), float64(j) / float64(k)},
				geom.Point{float64(i+1) / float64(k), float64(j+1) / float64(k)}))
			w := 0.0
			if r.IntN(3) > 0 {
				w = r.Float64() / float64(k*k)
			}
			weights = append(weights, w)
		}
	}
	return buckets, weights
}

// TestReweightMatchesRebuild: a reweighted tree must produce exactly the
// estimates of a tree built from scratch over the new weights — the sums
// and the 2-D table are recomputed from the weights alone, so the
// comparison is exact — and must leave the original tree's answers alone.
func TestReweightMatchesRebuild(t *testing.T) {
	r := rng.New(91)
	type input struct {
		buckets []geom.Box
		w0      []float64
	}
	var inputs []input
	for _, n := range []int{80, 400, 2000} {
		buckets, w0 := randomBuckets(r, n, 2)
		inputs = append(inputs, input{buckets, w0})
	}
	grid, gw := gridBuckets(r, 40)
	inputs = append(inputs, input{grid, gw})
	for _, in := range inputs {
		buckets, w0 := in.buckets, in.w0
		n := len(buckets)
		tree := bvh.Build(buckets, w0)

		w1 := make([]float64, n)
		total := 0.0
		for i := range w1 {
			w1[i] = r.Float64()
			total += w1[i]
		}
		for i := range w1 {
			w1[i] /= total
		}
		rew := tree.Reweight(w1)
		ref := bvh.Build(buckets, w1)
		for q := 0; q < 200; q++ {
			box := randomQueryBox(r, 2)
			if got, want := rew.Estimate(box), ref.Estimate(box); got != want {
				t.Fatalf("n=%d query %d: reweighted %v != rebuilt %v", n, q, got, want)
			}
		}
		// The original tree must be untouched by the reweight.
		for q := 0; q < 50; q++ {
			box := randomQueryBox(r, 2)
			if got, want := tree.Estimate(box), flatEstimate(buckets, w0, box); math.Abs(got-want) > 1e-9 {
				t.Fatalf("n=%d: original tree disturbed by Reweight: %v vs %v", n, got, want)
			}
		}
	}
}

func TestReweightLengthMismatchPanics(t *testing.T) {
	r := rng.New(5)
	buckets, w := randomBuckets(r, 100, 2)
	tree := bvh.Build(buckets, w)
	defer func() {
		if recover() == nil {
			t.Fatal("Reweight with wrong length did not panic")
		}
	}()
	tree.Reweight(w[:50])
}

// overlapRow collects a ForEachOverlap enumeration into a dense row.
func overlapRow(n int, visit func(fn func(j int, frac float64))) ([]float64, []int) {
	row := make([]float64, n)
	var touched []int
	visit(func(j int, frac float64) {
		row[j] = frac
		touched = append(touched, j)
	})
	sort.Ints(touched)
	return row, touched
}

// TestForEachOverlapMatchesFlat: the tree enumeration must touch exactly
// the buckets the flat scan touches, with identical coverage fractions,
// for every query class.
func TestForEachOverlapMatchesFlat(t *testing.T) {
	r := rng.New(2027)
	for _, n := range []int{64, 512, 2048} {
		buckets, w := randomBuckets(r, n, 2)
		tree := bvh.Build(buckets, w)
		queries := []geom.Range{
			geom.UnitCube(2),
			randomQueryBox(r, 2),
			geom.NewBall(geom.Point{r.Float64(), r.Float64()}, 0.3*r.Float64()),
			geom.NewHalfspace(geom.Point{1, 1}, r.Float64()),
		}
		for qi := 0; qi < 30; qi++ {
			queries = append(queries, randomQueryBox(r, 2))
		}
		for qi, q := range queries {
			flatRow, flatTouched := overlapRow(n, func(fn func(int, float64)) {
				bvh.ForEachOverlapFlat(buckets, q, fn)
			})
			treeRow, treeTouched := overlapRow(n, func(fn func(int, float64)) {
				tree.ForEachOverlap(q, fn)
			})
			if len(flatTouched) != len(treeTouched) {
				t.Fatalf("n=%d query %d: touched %d (tree) vs %d (flat)",
					n, qi, len(treeTouched), len(flatTouched))
			}
			for j := range flatRow {
				if math.Abs(flatRow[j]-treeRow[j]) > 1e-12 {
					t.Fatalf("n=%d query %d bucket %d: frac %v (tree) vs %v (flat)",
						n, qi, j, treeRow[j], flatRow[j])
				}
			}
		}
	}
}

// TestOverlapRowReproducesEstimate: Σⱼ frac ⱼ·wⱼ over the enumerated
// buckets must equal the flat estimate (before clamping both are the same
// sum over the same support).
func TestOverlapRowReproducesEstimate(t *testing.T) {
	r := rng.New(77)
	buckets, w := randomBuckets(r, 700, 2)
	tree := bvh.Build(buckets, w)
	for qi := 0; qi < 100; qi++ {
		q := randomQueryBox(r, 2)
		s := 0.0
		tree.ForEachOverlap(q, func(j int, frac float64) { s += frac * w[j] })
		want := flatEstimate(buckets, w, q)
		if math.Abs(min(max(s, 0), 1)-want) > 1e-9 {
			t.Fatalf("query %d: overlap-row sum %v vs flat estimate %v", qi, s, want)
		}
	}
}

// TestLazySeed: a seeded Lazy must serve the seeded tree and never
// rebuild; seeding after a build must lose.
func TestLazySeed(t *testing.T) {
	r := rng.New(8)
	buckets, w := randomBuckets(r, bvh.IndexThreshold+10, 2)
	pre := bvh.Build(buckets, w)

	var l bvh.Lazy
	if l.Built() != nil {
		t.Fatal("zero Lazy reports a built tree")
	}
	l.Seed(pre)
	if got := l.Ensure(buckets, w); got != pre {
		t.Fatal("Ensure after Seed did not return the seeded tree")
	}
	if l.Built() != pre {
		t.Fatal("Built did not return the seeded tree")
	}

	var l2 bvh.Lazy
	built := l2.Ensure(buckets, w)
	l2.Seed(pre)
	if got := l2.Ensure(buckets, w); got != built {
		t.Fatal("Seed after Ensure displaced the built tree")
	}
}
