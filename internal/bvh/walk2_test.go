package bvh

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// walk2Buckets draws m random 2-D buckets. With grid set, every corner
// snaps to a 1/8 grid, so buckets share and touch faces and queries drawn
// from the same grid land exactly on bucket faces. A few buckets are
// degraded to zero volume (segments and points).
func walk2Buckets(r *rng.RNG, m int, grid bool) []geom.Box {
	coord := func() float64 {
		if grid {
			return float64(r.IntN(9)) / 8
		}
		return r.Float64()
	}
	buckets := make([]geom.Box, m)
	for i := range buckets {
		lo, hi := make(geom.Point, 2), make(geom.Point, 2)
		for k := 0; k < 2; k++ {
			a, b := coord(), coord()
			lo[k], hi[k] = min(a, b), max(a, b)
		}
		switch r.IntN(20) {
		case 0:
			hi[0] = lo[0]
		case 1:
			hi[0], hi[1] = lo[0], lo[1]
		}
		buckets[i] = geom.Box{Lo: lo, Hi: hi}
	}
	return buckets
}

// walk2Weights draws weights of which about the given share are exactly
// zero.
func walk2Weights(r *rng.RNG, m int, zeroShare float64) []float64 {
	w := make([]float64, m)
	for j := range w {
		if r.Float64() >= zeroShare {
			w[j] = r.Float64() / float64(m)
		}
	}
	return w
}

// walk2Queries returns random boxes, boxes whose corners are bucket
// corners (so faces touch), degenerate boxes (a segment, a point), and the
// whole square.
func walk2Queries(r *rng.RNG, buckets []geom.Box, n int) []geom.Box {
	qs := []geom.Box{geom.UnitCube(2)}
	for len(qs) < n {
		lo, hi := make(geom.Point, 2), make(geom.Point, 2)
		switch len(qs) % 4 {
		case 0:
			for k := 0; k < 2; k++ {
				a, b := r.Float64(), r.Float64()
				lo[k], hi[k] = min(a, b), max(a, b)
			}
		case 1:
			a, b := buckets[r.IntN(len(buckets))], buckets[r.IntN(len(buckets))]
			for k := 0; k < 2; k++ {
				lo[k], hi[k] = min(a.Lo[k], b.Lo[k]), max(a.Hi[k], b.Hi[k])
			}
		case 2:
			b := buckets[r.IntN(len(buckets))]
			copy(lo, b.Lo)
			copy(hi, b.Hi)
			hi[0] = lo[0]
		default:
			lo[0], lo[1] = r.Float64(), r.Float64()
			copy(hi, lo)
		}
		qs = append(qs, geom.Box{Lo: lo, Hi: hi})
	}
	return qs
}

// checkWalk2 compares the packed 2-D walk with estimateBox bit for bit on
// every query, by value and by pointer, and the clamped estimate with the
// flat kernel within 1e-9.
func checkWalk2(t *testing.T, name string, tr *Tree, buckets []geom.Box, weights []float64, queries []geom.Box) {
	t.Helper()
	if tr.nodes2 == nil {
		t.Fatalf("%s: 2-D tree carries no packed records", name)
	}
	nonzero := 0
	for _, w := range weights {
		if w != 0 {
			nonzero++
		}
	}
	if len(tr.buckets2) != nonzero || cap(tr.buckets2) != nonzero {
		t.Fatalf("%s: %d bucket records (cap %d), want %d nonzero weights",
			name, len(tr.buckets2), cap(tr.buckets2), nonzero)
	}
	for qi, q := range queries {
		want := tr.estimateBox(0, q.Lo, q.Hi)
		got := tr.boxSum(q.Lo, q.Hi)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s query %d %v: 2-D walk %v (%#x) != estimateBox %v (%#x)",
				name, qi, q, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		qp := q
		ev, ep := tr.Estimate(q), tr.Estimate(&qp)
		if math.Float64bits(ev) != math.Float64bits(ep) {
			t.Fatalf("%s query %d: value estimate %v != pointer estimate %v", name, qi, ev, ep)
		}
		if flat := EstimateFlat(buckets, weights, q); math.Abs(ev-flat) > 1e-9*max(1, math.Abs(flat)) {
			t.Fatalf("%s query %d: Estimate %v drifted from flat %v", name, qi, ev, flat)
		}
	}
}

// copyRaw deep-copies a tree's exported arrays, so FromRaw gets storage
// the source tree does not share.
func copyRaw(r Raw) Raw {
	return Raw{
		Dim:     r.Dim,
		NLo:     append([]float64(nil), r.NLo...),
		NHi:     append([]float64(nil), r.NHi...),
		Left:    append([]int32(nil), r.Left...),
		Right:   append([]int32(nil), r.Right...),
		LOff:    append([]int32(nil), r.LOff...),
		LCnt:    append([]int32(nil), r.LCnt...),
		LeafIdx: append([]int32(nil), r.LeafIdx...),
		InvVols: append([]float64(nil), r.InvVols...),
		WSums:   append([]float64(nil), r.WSums...),
	}
}

// Property: on random 2-D trees from Build, FromRaw and Reweight — with
// overlapping, face-touching and zero-volume buckets, many exact-zero
// weights, an all-zero leaf and an all-zero tree — the packed 2-D walk
// returns estimateBox's exact bits for every query.
func TestPropertyWalk2MatchesEstimateBoxBits(t *testing.T) {
	r := rng.New(2061)
	for trial := 0; trial < 24; trial++ {
		m := []int{IndexThreshold, 200, 1000}[trial%3]
		grid := trial%2 == 0
		buckets := walk2Buckets(r, m, grid)
		weights := walk2Weights(r, m, []float64{0, 0.4, 0.65, 0.9}[trial%4])
		queries := walk2Queries(r, buckets, 48)

		built := Build(buckets, weights)
		// Zero one whole leaf, so a leaf window holds no records while
		// its bucket ids stay in the tree.
		for id := range built.left {
			if built.left[id] < 0 && built.lcnt[id] > 0 {
				for _, j := range built.leafIdx[built.loff[id] : built.loff[id]+built.lcnt[id]] {
					weights[j] = 0
				}
				break
			}
		}
		built = Build(buckets, weights)
		checkWalk2(t, "build", built, buckets, weights, queries)

		lo, hi := append([]float64(nil), built.blo...), append([]float64(nil), built.bhi...)
		loaded, err := FromRaw(copyRaw(built.Raw()), buckets, weights, lo, hi)
		if err != nil {
			t.Fatalf("trial %d: FromRaw of a built tree: %v", trial, err)
		}
		checkWalk2(t, "fromraw", loaded, buckets, weights, queries)

		// Reweight zero buckets to nonzero and nonzero ones to zero, and
		// back to the original vector.
		flipped := make([]float64, m)
		for j, w := range weights {
			if w == 0 {
				flipped[j] = r.Float64() / float64(m)
			}
		}
		rew := built.Reweight(flipped)
		checkWalk2(t, "reweight", rew, buckets, flipped, queries)
		checkWalk2(t, "reweight back", rew.Reweight(weights), buckets, weights, queries)
		checkWalk2(t, "reweight loaded", loaded.Reweight(flipped), buckets, flipped, queries)

		zeros := make([]float64, m)
		checkWalk2(t, "all zero", built.Reweight(zeros), buckets, zeros, queries)
		checkWalk2(t, "all zero build", Build(buckets, zeros), buckets, zeros, queries)
	}
}

// Trees of other dimensions carry no packed records and keep the generic
// walk.
func TestWalk2OnlyTwoDimensional(t *testing.T) {
	r := rng.New(5)
	for _, d := range []int{1, 3} {
		buckets := make([]geom.Box, 100)
		for i := range buckets {
			lo, hi := make(geom.Point, d), make(geom.Point, d)
			for k := range lo {
				lo[k] = r.Float64() / 2
				hi[k] = lo[k] + r.Float64()/2
			}
			buckets[i] = geom.Box{Lo: lo, Hi: hi}
		}
		tr := Build(buckets, walk2Weights(r, len(buckets), 0.5))
		if tr.nodes2 != nil || tr.buckets2 != nil {
			t.Fatalf("d=%d tree carries 2-D records", d)
		}
	}
}

// FromRaw must reject a tree whose walk from the root reaches a bucket or
// a node twice, or never reaches a bucket: its estimates would count those
// weights twice or not at all, and the packed records would copy it.
func TestFromRawRejectsRepeatedReach(t *testing.T) {
	r := rng.New(12)
	buckets := walk2Buckets(r, 200, false)
	weights := walk2Weights(r, 200, 0.3)
	built := Build(buckets, weights)
	if _, err := FromRaw(copyRaw(built.Raw()), buckets, weights, built.blo, built.bhi); err != nil {
		t.Fatalf("FromRaw rejected a built tree: %v", err)
	}
	for _, c := range []struct {
		name   string
		mutate func(*Raw)
	}{
		{"bucket twice", func(raw *Raw) { raw.LeafIdx[1] = raw.LeafIdx[0] }},
		{"subtree twice", func(raw *Raw) { raw.Right[0] = raw.Left[0] }},
		{"bucket never", func(raw *Raw) {
			for id := range raw.Left {
				if raw.Left[id] < 0 && raw.LCnt[id] > 0 {
					raw.LCnt[id]--
					return
				}
			}
		}},
	} {
		raw := copyRaw(built.Raw())
		c.mutate(&raw)
		if _, err := FromRaw(raw, buckets, weights, built.blo, built.bhi); err == nil {
			t.Errorf("%s: FromRaw accepted the tree", c.name)
		}
	}
}
