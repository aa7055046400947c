package bvh

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// sparseWeights draws weights of which about the given share are exactly
// zero.
func sparseWeights(r *rng.RNG, m int, zeroShare float64) []float64 {
	w := make([]float64, m)
	for j := range w {
		if r.Float64() >= zeroShare {
			w[j] = r.Float64() / float64(m)
		}
	}
	return w
}

// box2 is the box [x1,x2]×[y1,y2].
func box2(x1, y1, x2, y2 float64) geom.Box {
	return geom.Box{Lo: geom.Point{x1, y1}, Hi: geom.Point{x2, y2}}
}

// quadBuckets partitions the unit square the way a data-driven quadtree
// does: until there are at least m leaves, it splits into its four
// quadrants the leaf holding the most mass of a smooth density with two
// bumps. Leaf sizes then differ by powers of two across the square, and
// coarse leaves span many of the grid lines that finer ones draw.
func quadBuckets(r *rng.RNG, m int) []geom.Box {
	var bumps [2][3]float64 // center and width
	for i := range bumps {
		bumps[i] = [3]float64{r.Float64(), r.Float64(), 0.05 + 0.2*r.Float64()}
	}
	mass := func(b geom.Box) float64 {
		x, y := (b.Lo[0]+b.Hi[0])/2, (b.Lo[1]+b.Hi[1])/2
		d := 0.05
		for _, c := range bumps {
			d += math.Exp(-((x-c[0])*(x-c[0]) + (y-c[1])*(y-c[1])) / (2 * c[2] * c[2]))
		}
		return d * b.Volume()
	}
	leaves := []geom.Box{geom.UnitCube(2)}
	for len(leaves) < m {
		k := 0
		for i := range leaves {
			if mass(leaves[i]) > mass(leaves[k]) {
				k = i
			}
		}
		b := leaves[k]
		leaves = slices.Delete(leaves, k, k+1)
		mx, my := (b.Lo[0]+b.Hi[0])/2, (b.Lo[1]+b.Hi[1])/2
		leaves = append(leaves,
			box2(b.Lo[0], b.Lo[1], mx, my), box2(mx, b.Lo[1], b.Hi[0], my),
			box2(b.Lo[0], my, mx, b.Hi[1]), box2(mx, my, b.Hi[0], b.Hi[1]))
	}
	return leaves
}

// cuts returns 0, n−1 random interior cuts and 1, ascending.
func cuts(r *rng.RNG, n int) []float64 {
	c := []float64{0, 1}
	for i := 1; i < n; i++ {
		c = append(c, r.Float64())
	}
	slices.Sort(c)
	return c
}

// gridBuckets partitions the unit square into nx × ny cells at random
// cuts, in row-major order.
func gridBuckets(r *rng.RNG, nx, ny int) []geom.Box {
	xs, ys := cuts(r, nx), cuts(r, ny)
	var buckets []geom.Box
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			buckets = append(buckets, box2(xs[i], ys[j], xs[i+1], ys[j+1]))
		}
	}
	return buckets
}

// overlapBuckets draws m buckets of one or two cells per side on a 1/16
// grid, so they overlap freely while the grid and their cover stay small.
func overlapBuckets(r *rng.RNG, m int) []geom.Box {
	buckets := make([]geom.Box, m)
	for j := range buckets {
		x, y := r.IntN(15), r.IntN(15)
		buckets[j] = box2(float64(x)/16, float64(y)/16,
			float64(x+1+r.IntN(2))/16, float64(y+1+r.IntN(2))/16)
	}
	return buckets
}

// randomBoxes2 draws m random 2-D buckets. With grid set, every corner
// snaps to a 1/8 grid, so buckets share and touch faces. A few buckets
// are degraded to zero volume (segments and points).
func randomBoxes2(r *rng.RNG, m int, grid bool) []geom.Box {
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

// tableQueries returns the whole square, a box around it, a box beside
// it, and then in turn: random boxes partly outside [0,1]², boxes whose
// faces are bucket faces, boxes of zero width on one axis, inverted boxes
// (lo > hi on one or both axes), and points, some on bucket corners.
func tableQueries(r *rng.RNG, buckets []geom.Box, n int) []geom.Box {
	qs := []geom.Box{geom.UnitCube(2), box2(-1, -1, 2, 2), box2(1.5, 0, 2, 1)}
	outside := func() float64 { return 1.5*r.Float64() - 0.25 }
	for len(qs) < n {
		a, b := buckets[r.IntN(len(buckets))], buckets[r.IntN(len(buckets))]
		var q geom.Box
		switch len(qs) % 5 {
		case 0:
			q = box2(outside(), outside(), outside(), outside())
			for k := 0; k < 2; k++ {
				q.Lo[k], q.Hi[k] = min(q.Lo[k], q.Hi[k]), max(q.Lo[k], q.Hi[k])
			}
		case 1:
			q = box2(min(a.Lo[0], b.Lo[0]), min(a.Lo[1], b.Lo[1]), max(a.Hi[0], b.Hi[0]), max(a.Hi[1], b.Hi[1]))
		case 2:
			q = box2(a.Lo[0], r.Float64(), a.Lo[0], 1)
			if r.IntN(2) == 0 {
				q = box2(r.Float64()/2, a.Hi[1], 1, a.Hi[1])
			}
		case 3:
			q = box2(a.Hi[0], a.Lo[1], a.Lo[0], a.Hi[1])
			if r.IntN(2) == 0 {
				q = box2(a.Hi[0], a.Hi[1], a.Lo[0], a.Lo[1])
			}
		default:
			x, y := r.Float64(), r.Float64()
			if r.IntN(2) == 0 {
				x, y = a.Lo[0], a.Hi[1]
			}
			q = box2(x, y, x, y)
		}
		qs = append(qs, q)
	}
	return qs
}

// fromOrder rebuilds tr with FromOrder over a copy of its leaf order and
// freshly flattened corners, so the result shares only the buckets and
// weights with tr.
func fromOrder(t *testing.T, tr *Tree, buckets []geom.Box, weights []float64) *Tree {
	t.Helper()
	var lo, hi []float64
	for _, b := range buckets {
		lo = append(lo, b.Lo...)
		hi = append(hi, b.Hi...)
	}
	got, err := FromOrder(buckets, weights, lo, hi, append([]int32(nil), tr.Order()...))
	if err != nil {
		t.Fatalf("FromOrder over a built tree's order: %v", err)
	}
	return got
}

// servesTable reports whether a tree over these buckets and weights should
// carry a table, counting grid lines and covered cells directly: 2-D,
// some nonzero weight, every nonzero-weight bucket of positive volume, and
// neither the grid nor the covered cells above maxCellsPerBucket·m.
func servesTable(buckets []geom.Box, weights []float64) bool {
	if len(buckets) == 0 || buckets[0].Dim() != 2 {
		return false
	}
	var xs, ys []float64
	for j, b := range buckets {
		if weights[j] == 0 {
			continue
		}
		if b.Volume() <= 0 {
			return false
		}
		xs = append(xs, b.Lo[0], b.Hi[0])
		ys = append(ys, b.Lo[1], b.Hi[1])
	}
	if len(xs) == 0 {
		return false
	}
	slices.Sort(xs)
	slices.Sort(ys)
	xs, ys = slices.Compact(xs), slices.Compact(ys)
	limit := maxCellsPerBucket * len(buckets)
	if (len(xs)-1)*(len(ys)-1) > limit {
		return false
	}
	covered := 0
	for j, b := range buckets {
		if weights[j] != 0 {
			nx := slices.Index(xs, b.Hi[0]) - slices.Index(xs, b.Lo[0])
			ny := slices.Index(ys, b.Hi[1]) - slices.Index(ys, b.Lo[1])
			covered += nx * ny
		}
	}
	return covered <= limit
}

// checkTable holds a tree to the table's contract on every query: it
// carries a table exactly when servesTable says so; by value and by
// pointer it answers alike; with a table it answers within 1e-9 of the
// flat kernel, and without one, or at a NaN coordinate, with
// estimateBox's exact bits.
func checkTable(t *testing.T, name string, tr *Tree, buckets []geom.Box, weights []float64, queries []geom.Box) {
	t.Helper()
	if want := servesTable(buckets, weights); (tr.tab.mass != nil) != want {
		t.Fatalf("%s: tree carries a table = %v, want %v", name, tr.tab.mass != nil, want)
	}
	nan := math.NaN()
	for qi, q := range append(slices.Clip(queries), box2(nan, 0, 1, 1), box2(0, 0, 1, nan)) {
		qp := q
		got := tr.Estimate(q)
		if gp := tr.Estimate(&qp); math.Float64bits(gp) != math.Float64bits(got) {
			t.Fatalf("%s query %d: value estimate %v != pointer estimate %v", name, qi, got, gp)
		}
		if tr.tab.mass == nil || qi >= len(queries) {
			if want := clamp01(tr.estimateBox(0, q.Lo, q.Hi)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s query %d %v: %v (%#x), estimateBox %v (%#x)",
					name, qi, q, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			continue
		}
		if flat := EstimateFlat(buckets, weights, q); math.Abs(got-flat) > 1e-9*max(1, math.Abs(flat)) {
			t.Fatalf("%s query %d %v: table %v, flat %v", name, qi, q, got, flat)
		}
	}
}

// clamp01 clamps s to [0,1] as Estimate does.
func clamp01(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// sameBits requires two trees to answer every query with the same bits.
func sameBits(t *testing.T, name string, a, b *Tree, queries []geom.Box) {
	t.Helper()
	for qi, q := range queries {
		if x, y := a.Estimate(q), b.Estimate(q); math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("%s query %d %v: %v != %v", name, qi, q, x, y)
		}
	}
}

// Property: on quadtree-like and grid partitions with 0–90% exact-zero
// weights, a single nonzero bucket, zero-mass grid rows and columns, and
// small-grid overlapping buckets, trees from Build, FromOrder and Reweight
// carry a table and answer every box query within 1e-9 of the flat
// kernel; the three constructors give one another's bits over the same
// buckets and weights, and a reweight leaves its receiver's answers alone.
func TestPropertyTableMatchesFlat(t *testing.T) {
	r := rng.New(2091)
	type model struct {
		name    string
		buckets []geom.Box
		weights []float64
	}
	var models []model
	for trial := 0; trial < 8; trial++ {
		zeros := []float64{0, 0.4, 0.65, 0.9}[trial%4]
		for _, m := range [][]int{{IndexThreshold, 700}, {300, 2000}}[trial/4] {
			qb := quadBuckets(r, m)
			models = append(models, model{"quadtree", qb, sparseWeights(r, len(qb), zeros)})
			gb := gridBuckets(r, 8+r.IntN(20), 8+r.IntN(20))
			models = append(models, model{"grid", gb, sparseWeights(r, len(gb), zeros)})
			ob := overlapBuckets(r, m)
			models = append(models, model{"overlapping", ob, sparseWeights(r, m, zeros)})
		}
	}
	// One nonzero bucket, and a grid whose rows 2–4 and columns 6 and 9
	// hold no mass.
	one := gridBuckets(r, 10, 12)
	w := make([]float64, len(one))
	w[37] = 0.5
	models = append(models, model{"one bucket", one, w})
	holes := gridBuckets(r, 12, 12)
	w = sparseWeights(r, len(holes), 0)
	for j := range w {
		if i, k := j/12, j%12; (i >= 2 && i <= 4) || k == 6 || k == 9 {
			w[j] = 0
		}
	}
	models = append(models, model{"empty rows", holes, w})
	// Corners at -0 and +0 draw one grid line.
	signed := gridBuckets(r, 9, 9)
	for j := range signed[:9] {
		signed[j].Lo[0] = math.Copysign(0, -1)
	}
	models = append(models, model{"signed zero", signed, sparseWeights(r, len(signed), 0.2)})

	for _, md := range models {
		buckets, weights := md.buckets, md.weights
		queries := tableQueries(r, buckets, 60)
		built := Build(buckets, weights)
		if built.tab.mass == nil {
			t.Fatalf("%s m=%d: no table", md.name, len(buckets))
		}
		for _, g := range [][]float64{built.tab.xs, built.tab.ys} {
			for i := 1; i < len(g); i++ {
				if !(g[i-1] < g[i]) {
					t.Fatalf("%s: grid lines %v, %v not ascending and distinct", md.name, g[i-1], g[i])
				}
			}
		}
		checkTable(t, md.name+" build", built, buckets, weights, queries)
		loaded := fromOrder(t, built, buckets, weights)
		checkTable(t, md.name+" fromorder", loaded, buckets, weights, queries)
		sameBits(t, md.name+" build vs fromorder", built, loaded, queries)

		// Reweight to a vector that turns zero buckets nonzero and
		// nonzero ones zero, and back.
		flipped := make([]float64, len(weights))
		for j, w := range weights {
			if w == 0 {
				flipped[j] = r.Float64() / float64(len(weights))
			}
		}
		before := make([]float64, len(queries))
		for qi, q := range queries {
			before[qi] = built.Estimate(q)
		}
		rew := built.Reweight(flipped)
		checkTable(t, md.name+" reweight", rew, buckets, flipped, queries)
		for qi, q := range queries {
			if got := built.Estimate(q); math.Float64bits(got) != math.Float64bits(before[qi]) {
				t.Fatalf("%s: Reweight changed its receiver's answer to query %d: %v, was %v", md.name, qi, got, before[qi])
			}
		}
		back := rew.Reweight(weights)
		checkTable(t, md.name+" reweight back", back, buckets, weights, queries)
		sameBits(t, md.name+" build vs reweight", built, back, queries)
		if !reflect.DeepEqual(built.tab, back.tab) || !reflect.DeepEqual(built.tab, loaded.tab) {
			t.Fatalf("%s: Build, FromOrder and Reweight made different tables over the same weights", md.name)
		}
		sameBits(t, md.name+" reweight vs build", rew, Build(buckets, flipped), queries)
	}
}

// Trees the table refuses — a weighted zero-volume bucket, a grid or a
// cover over the cap, the all-zero model — carry none and answer with
// estimateBox's bits, as NaN-coordinate queries do on every tree
// (checkTable).
func TestTableRefusalsKeepWalkBits(t *testing.T) {
	r := rng.New(2092)
	grid := gridBuckets(r, 12, 12)
	point := slices.Clone(grid)
	point[5] = box2(point[5].Lo[0], point[5].Lo[1], point[5].Lo[0], point[5].Hi[1])
	big := make([]geom.Box, 200) // 1/4-grid buckets, each covering 4–9 of its 16 cells
	for j := range big {
		x, y := r.IntN(2), r.IntN(2)
		big[j] = box2(float64(x)/4, float64(y)/4, float64(x+2+r.IntN(2))/4, float64(y+2+r.IntN(2))/4)
	}
	for _, c := range []struct {
		name    string
		buckets []geom.Box
		weights []float64
	}{
		{"weighted zero-volume bucket", point, sparseWeights(r, len(point), 0)},
		{"random corners", randomBoxes2(r, 300, false), sparseWeights(r, 300, 0.3)},
		{"cover over the cap", big, sparseWeights(r, len(big), 0)},
		{"all zero", grid, make([]float64, len(grid))},
		{"all zero random", randomBoxes2(r, 200, true), make([]float64, 200)},
	} {
		queries := tableQueries(r, c.buckets, 60)
		built := Build(c.buckets, c.weights)
		if built.tab.mass != nil {
			t.Fatalf("%s: the table was built", c.name)
		}
		checkTable(t, c.name+" build", built, c.buckets, c.weights, queries)
		checkTable(t, c.name+" fromorder", fromOrder(t, built, c.buckets, c.weights), c.buckets, c.weights, queries)
		checkTable(t, c.name+" reweight", Build(c.buckets, sparseWeights(r, len(c.buckets), 0.5)).Reweight(c.weights),
			c.buckets, c.weights, queries)
	}
	// The zero-volume bucket at zero weight no longer blocks the table.
	w := sparseWeights(r, len(point), 0)
	w[5] = 0
	if Build(point, w).tab.mass == nil {
		t.Fatal("a zero-weight zero-volume bucket blocked the table")
	}
}

// Trees of other dimensions carry no table.
func TestTableOnlyTwoDimensional(t *testing.T) {
	r := rng.New(5)
	for _, d := range []int{1, 3} {
		buckets := make([]geom.Box, 100)
		for i := range buckets {
			lo, hi := make(geom.Point, d), make(geom.Point, d)
			for k := range lo {
				lo[k] = float64(r.IntN(4)) / 8
				hi[k] = lo[k] + float64(1+r.IntN(4))/8
			}
			buckets[i] = geom.Box{Lo: lo, Hi: hi}
		}
		if tr := Build(buckets, sparseWeights(r, len(buckets), 0.5)); tr.tab.mass != nil {
			t.Fatalf("d=%d tree carries a table", d)
		}
	}
}
