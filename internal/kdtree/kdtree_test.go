package kdtree

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

func randomPoints(r *rng.RNG, n, d int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = r.Float64()
		}
		pts[i] = p
	}
	return pts
}

func clusteredPoints(r *rng.RNG, n, d int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		base := 0.2 + 0.1*float64(i%3)
		for j := range p {
			p[j] = base + 0.05*r.NormFloat64()
			if p[j] < 0 {
				p[j] = 0
			}
			if p[j] > 1 {
				p[j] = 1
			}
		}
		pts[i] = p
	}
	return pts
}

func TestEmptyTree(t *testing.T) {
	tr := Build(nil)
	if tr.Len() != 0 {
		t.Fatal("empty tree has nonzero length")
	}
	if got := tr.Count(geom.UnitCube(2)); got != 0 {
		t.Fatalf("empty tree count = %d", got)
	}
	if got := tr.Selectivity(geom.UnitCube(2)); got != 0 {
		t.Fatalf("empty tree selectivity = %v", got)
	}
}

func TestCountMatchesBruteForceBoxes(t *testing.T) {
	r := rng.New(1)
	for _, d := range []int{1, 2, 3, 5, 8} {
		pts := randomPoints(r, 2000, d)
		tr := Build(pts)
		for trial := 0; trial < 50; trial++ {
			center := make(geom.Point, d)
			sides := make([]float64, d)
			for i := 0; i < d; i++ {
				center[i] = r.Float64()
				sides[i] = r.Float64()
			}
			q := geom.BoxFromCenter(center, sides)
			want := BruteCount(pts, q)
			if got := tr.Count(q); got != want {
				t.Fatalf("d=%d box: kd count %d != brute %d", d, got, want)
			}
		}
	}
}

func TestCountMatchesBruteForceBalls(t *testing.T) {
	r := rng.New(2)
	for _, d := range []int{2, 4, 7} {
		pts := randomPoints(r, 1500, d)
		tr := Build(pts)
		for trial := 0; trial < 50; trial++ {
			c := make(geom.Point, d)
			for i := range c {
				c[i] = r.Float64()
			}
			q := geom.NewBall(c, r.Float64())
			want := BruteCount(pts, q)
			if got := tr.Count(q); got != want {
				t.Fatalf("d=%d ball: kd count %d != brute %d", d, got, want)
			}
		}
	}
}

func TestCountMatchesBruteForceHalfspaces(t *testing.T) {
	r := rng.New(3)
	for _, d := range []int{2, 5} {
		pts := randomPoints(r, 1500, d)
		tr := Build(pts)
		for trial := 0; trial < 50; trial++ {
			a := make(geom.Point, d)
			for i := range a {
				a[i] = 2*r.Float64() - 1
			}
			q := geom.NewHalfspace(a, 2*r.Float64()-1)
			want := BruteCount(pts, q)
			if got := tr.Count(q); got != want {
				t.Fatalf("d=%d halfspace: kd count %d != brute %d", d, got, want)
			}
		}
	}
}

func TestCountOnSkewedData(t *testing.T) {
	r := rng.New(4)
	pts := clusteredPoints(r, 3000, 3)
	tr := Build(pts)
	for trial := 0; trial < 50; trial++ {
		c := geom.Point{r.Float64(), r.Float64(), r.Float64()}
		q := geom.NewBall(c, 0.2*r.Float64())
		want := BruteCount(pts, q)
		if got := tr.Count(q); got != want {
			t.Fatalf("skewed ball: kd count %d != brute %d", got, want)
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	// Many duplicates stress the median-split adjustment.
	pts := make([]geom.Point, 0, 500)
	for i := 0; i < 400; i++ {
		pts = append(pts, geom.Point{0.5, 0.5})
	}
	r := rng.New(5)
	for i := 0; i < 100; i++ {
		pts = append(pts, geom.Point{r.Float64(), r.Float64()})
	}
	tr := Build(pts)
	q := geom.NewBox(geom.Point{0.49, 0.49}, geom.Point{0.51, 0.51})
	want := BruteCount(pts, q)
	if got := tr.Count(q); got != want {
		t.Fatalf("duplicate points: kd count %d != brute %d", got, want)
	}
	// Boxes go to the rank index; walkBox and a ball build and walk the
	// kd-tree over the duplicates.
	if got := tr.Count(walkBox{q}); got != want {
		t.Fatalf("duplicate points: kd walk count %d != brute %d", got, want)
	}
	ball := geom.NewBall(geom.Point{0.5, 0.5}, 0.01)
	if got, want := tr.Count(ball), BruteCount(pts, ball); got != want {
		t.Fatalf("duplicate points: kd ball count %d != brute %d", got, want)
	}
}

// TestWalkCountsNaNPointsAsBruteForce: on point sets holding NaN
// coordinates, the kd walk counts as BruteCount does, for boxes through
// the walk, balls and halfspaces. A box admits a NaN coordinate on every
// side and a ball or halfspace rejects one, so no bounding box can prune
// such a point for both. A set holds one NaN point at random, up to 20,
// only NaN points, or one NaN point first.
func TestWalkCountsNaNPointsAsBruteForce(t *testing.T) {
	r := rng.New(15)
	for tree := 0; tree < 200; tree++ {
		d := 2 + tree%2
		n := 200
		if tree%10 == 9 {
			n = 5
		}
		pts := randomPoints(r, n, d)
		var nanAt []int
		switch tree % 4 {
		case 0:
			nanAt = []int{r.IntN(n)}
		case 1:
			for k := 1 + r.IntN(20); k > 0; k-- {
				nanAt = append(nanAt, r.IntN(n))
			}
		case 2:
			for i := range pts {
				nanAt = append(nanAt, i)
			}
		case 3:
			nanAt = []int{0}
		}
		for _, i := range nanAt {
			pts[i][r.IntN(d)] = math.NaN()
		}
		tr := Build(pts)
		for q := 0; q < 20; q++ {
			c := make(geom.Point, d)
			sides := make([]float64, d)
			a := make(geom.Point, d)
			for i := range c {
				c[i], sides[i], a[i] = r.Float64(), r.Float64(), 2*r.Float64()-1
			}
			for _, rg := range []geom.Range{
				walkBox{geom.BoxFromCenter(c, sides)},
				geom.NewBall(c, 0.3),
				geom.NewHalfspace(a, 2*r.Float64()-1),
			} {
				if got, want := tr.Count(rg), BruteCount(pts, rg); got != want {
					t.Fatalf("tree %d (NaN at %v of %d points, d=%d), %T %v: walk %d, brute force %d",
						tree, nanAt, n, d, rg, rg, got, want)
				}
			}
		}
	}
}

func TestSelectivityFullRange(t *testing.T) {
	r := rng.New(6)
	pts := randomPoints(r, 500, 2)
	tr := Build(pts)
	if got := tr.Selectivity(geom.UnitCube(2)); got != 1 {
		t.Fatalf("selectivity of unit cube = %v, want 1", got)
	}
}
