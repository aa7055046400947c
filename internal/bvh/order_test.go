package bvh

import (
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// orderBuckets draws m buckets of dimension d. With grid set, every corner
// snaps to a 1/4 grid, so many buckets share a center on every axis (the
// sort sees ties) and many coincide outright. A tenth of the buckets are
// flattened to zero volume along one axis, and random corners overlap
// freely.
func orderBuckets(r *rng.RNG, m, d int, grid bool) []geom.Box {
	coord := func() float64 {
		if grid {
			return float64(r.IntN(5)) / 4
		}
		return r.Float64()
	}
	buckets := make([]geom.Box, m)
	for j := range buckets {
		lo, hi := make(geom.Point, d), make(geom.Point, d)
		for k := 0; k < d; k++ {
			a, b := coord(), coord()
			lo[k], hi[k] = min(a, b), max(a, b)
		}
		if r.IntN(10) == 0 {
			k := r.IntN(d)
			hi[k] = lo[k]
		}
		buckets[j] = geom.Box{Lo: lo, Hi: hi}
	}
	return buckets
}

// Property: FromOrder over Build's leaf order reproduces Build's tree
// exactly — node boxes, links, leaf windows, inverse volumes, subtree sums
// and the 2-D table — for every dimension and bucket count, including an
// empty tree, a single leaf, the first split and the indexing threshold.
// A 2-D tree the table can serve carries one; no other tree does. On the
// 1/4 grid, 2-D trees are also built with their zero-volume buckets at
// zero weight, which the table serves.
func TestPropertyFromOrderMatchesBuild(t *testing.T) {
	r := rng.New(1907)
	tables := 0
	for _, d := range []int{1, 2, 3, 5} {
		for _, m := range []int{0, 1, 8, 9, 63, 64, 1000, 4097} {
			for _, grid := range []bool{false, true} {
				buckets := orderBuckets(r, m, d, grid)
				weightSets := [][]float64{sparseWeights(r, m, 0.3)}
				if d == 2 && grid {
					w := sparseWeights(r, m, 0.3)
					for j, b := range buckets {
						if b.Volume() == 0 {
							w[j] = 0
						}
					}
					weightSets = append(weightSets, w)
				}
				for _, weights := range weightSets {
					built := Build(buckets, weights)
					loaded := fromOrder(t, built, buckets, weights)
					if !reflect.DeepEqual(built, loaded) {
						t.Fatalf("d=%d m=%d grid=%v: FromOrder over Build's order made a different tree", d, m, grid)
					}
					if has := loaded.tab.mass != nil; has != servesTable(buckets, weights) {
						t.Fatalf("d=%d m=%d grid=%v: tree carries a table = %v", d, m, grid, has)
					} else if has {
						tables++
					}
				}
			}
		}
	}
	if tables == 0 {
		t.Fatal("no tree carried a table")
	}
}

// FromOrder must reject an order that is not a permutation of the bucket
// ids, and corner arrays or weights of the wrong length: a repeated id
// would count that bucket's weight twice and a missing one never.
func TestFromOrderRejectsBadOrder(t *testing.T) {
	r := rng.New(12)
	const m = 200
	buckets := randomBoxes2(r, m, false)
	weights := sparseWeights(r, m, 0.3)
	built := Build(buckets, weights)
	fromOrder(t, built, buckets, weights)
	for _, c := range []struct {
		name   string
		mutate func(order []int32, lo, hi, w []float64) ([]int32, []float64, []float64, []float64)
	}{
		{"id twice", func(o []int32, lo, hi, w []float64) ([]int32, []float64, []float64, []float64) {
			o[1] = o[0]
			return o, lo, hi, w
		}},
		{"id out of range", func(o []int32, lo, hi, w []float64) ([]int32, []float64, []float64, []float64) {
			o[5] = m
			return o, lo, hi, w
		}},
		{"negative id", func(o []int32, lo, hi, w []float64) ([]int32, []float64, []float64, []float64) {
			o[5] = -1
			return o, lo, hi, w
		}},
		{"short order", func(o []int32, lo, hi, w []float64) ([]int32, []float64, []float64, []float64) {
			return o[:m-1], lo, hi, w
		}},
		{"long order", func(o []int32, lo, hi, w []float64) ([]int32, []float64, []float64, []float64) {
			return append(o, o[0]), lo, hi, w
		}},
		{"short corners", func(o []int32, lo, hi, w []float64) ([]int32, []float64, []float64, []float64) {
			return o, lo[:len(lo)-1], hi, w
		}},
		{"short weights", func(o []int32, lo, hi, w []float64) ([]int32, []float64, []float64, []float64) {
			return o, lo, hi, w[:m-1]
		}},
	} {
		order := append([]int32(nil), built.Order()...)
		lo := append([]float64(nil), built.blo...)
		hi := append([]float64(nil), built.bhi...)
		order, lo, hi, w := c.mutate(order, lo, hi, weights)
		if _, err := FromOrder(buckets, w, lo, hi, order); err == nil {
			t.Errorf("%s: FromOrder accepted it", c.name)
		}
	}
}
