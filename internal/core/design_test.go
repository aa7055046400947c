package core

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/linalg"
	"repro/internal/rng"
)

func randomSamples(r *rng.RNG, n, d int) []LabeledQuery {
	out := make([]LabeledQuery, n)
	for i := range out {
		c := make(geom.Point, d)
		s := make([]float64, d)
		for j := 0; j < d; j++ {
			c[j] = r.Float64()
			s[j] = r.Float64()
		}
		out[i] = LabeledQuery{R: geom.BoxFromCenter(c, s), Sel: r.Float64()}
	}
	return out
}

func randomBuckets(r *rng.RNG, n, d int) []geom.Box {
	out := make([]geom.Box, n)
	for i := range out {
		lo := make(geom.Point, d)
		hi := make(geom.Point, d)
		for j := 0; j < d; j++ {
			a, b := r.Float64(), r.Float64()
			lo[j], hi[j] = min(a, b), max(a, b)
		}
		out[i] = geom.Box{Lo: lo, Hi: hi}
	}
	return out
}

func TestDesignMatrixBoxesValues(t *testing.T) {
	// One query covering the left half; buckets: left half, right half,
	// and a box straddling the middle.
	q := geom.NewBox(geom.Point{0, 0}, geom.Point{0.5, 1})
	buckets := []geom.Box{
		geom.NewBox(geom.Point{0, 0}, geom.Point{0.5, 1}),
		geom.NewBox(geom.Point{0.5, 0}, geom.Point{1, 1}),
		geom.NewBox(geom.Point{0.25, 0}, geom.Point{0.75, 1}),
	}
	a := DesignMatrixBoxes([]LabeledQuery{{R: q, Sel: 0.4}}, buckets).Dense()
	want := []float64{1, 0, 0.5}
	for j, w := range want {
		if got := a.At(0, j); got != w {
			t.Fatalf("A[0][%d] = %v, want %v", j, got, w)
		}
	}
}

func TestDesignMatrixZeroVolumeBucket(t *testing.T) {
	q := geom.UnitCube(2)
	thin := geom.NewBox(geom.Point{0.5, 0}, geom.Point{0.5, 1})
	a := DesignMatrixBoxes([]LabeledQuery{{R: q, Sel: 1}}, []geom.Box{thin})
	if a.NNZ() != 0 {
		t.Fatalf("zero-volume bucket column holds %d entries", a.NNZ())
	}
}

func TestDesignMatrixPointsValues(t *testing.T) {
	q := geom.NewBall(geom.Point{0.5, 0.5}, 0.2)
	pts := []geom.Point{{0.5, 0.5}, {0.9, 0.9}, {0.6, 0.5}}
	a := DesignMatrixPoints([]LabeledQuery{{R: q, Sel: 0.1}}, pts).Dense()
	want := []float64{1, 0, 1}
	for j, w := range want {
		if got := a.At(0, j); got != w {
			t.Fatalf("A[0][%d] = %v, want %v", j, got, w)
		}
	}
}

// Parallel assembly must be bit-for-bit identical to sequential assembly.
func TestDesignMatrixParallelDeterminism(t *testing.T) {
	r := rng.New(17)
	for _, d := range []int{1, 2, 4} {
		samples := randomSamples(r, 120, d)
		buckets := randomBuckets(r, 90, d)
		seq := DesignMatrixBoxesWith(samples, buckets, 1)
		for _, workers := range []int{2, 4, 8, 200} {
			par := DesignMatrixBoxesWith(samples, buckets, workers)
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("d=%d workers=%d: matrices differ", d, workers)
			}
		}
	}
}

func TestDesignMatrixPointsParallelDeterminism(t *testing.T) {
	r := rng.New(31)
	samples := randomSamples(r, 150, 3)
	pts := make([]geom.Point, 80)
	for i := range pts {
		p := make(geom.Point, 3)
		for j := range p {
			p[j] = r.Float64()
		}
		pts[i] = p
	}
	seq := DesignMatrixPointsWith(samples, pts, 1)
	for _, workers := range []int{2, 5, 64} {
		if par := DesignMatrixPointsWith(samples, pts, workers); !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d: matrices differ", workers)
		}
	}
}

// TestDesignMatrixMemory: assembly never allocates the dense m×n matrix.
// At a design matrix's sparsity (small queries over a 32×32 grid of
// buckets, and over 2,000 points), the bytes it allocates stay under
// twice the final sparse arrays plus one n-entry scratch row for each of
// the row builder's blocks (at most four per worker), and under a
// quarter of a dense float64 matrix's m·n·8.
func TestDesignMatrixMemory(t *testing.T) {
	r := rng.New(47)
	samples := make([]LabeledQuery, 400)
	for i := range samples {
		c := geom.Point{r.Float64(), r.Float64()}
		samples[i] = LabeledQuery{R: geom.BoxFromCenter(c, []float64{0.2 * r.Float64(), 0.2 * r.Float64()})}
	}
	var grid []geom.Box
	for x := 0; x < 32; x++ {
		for y := 0; y < 32; y++ {
			grid = append(grid, geom.NewBox(geom.Point{float64(x) / 32, float64(y) / 32}, geom.Point{float64(x+1) / 32, float64(y+1) / 32}))
		}
	}
	points := make([]geom.Point, 2000)
	for j := range points {
		points[j] = geom.Point{r.Float64(), r.Float64()}
	}
	for _, c := range []struct {
		name     string
		n        int
		assemble func(workers int) *linalg.Sparse
	}{
		{"boxes", len(grid), func(workers int) *linalg.Sparse { return DesignMatrixBoxesWith(samples, grid, workers) }},
		{"points", len(points), func(workers int) *linalg.Sparse { return DesignMatrixPointsWith(samples, points, workers) }},
	} {
		m, n := len(samples), c.n
		for _, workers := range []int{1, 2} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			a := c.assemble(workers)
			runtime.ReadMemStats(&after)
			alloc := int(after.TotalAlloc - before.TotalAlloc)
			// The final arrays: row and column pointers, a CSR and a CSC
			// int32 index per exact 1, and a CSR and a CSC (int32,
			// float64) pair per other entry.
			ones, others := 0, 0
			for _, v := range a.Dense().Data {
				switch {
				case v == 0:
				case v == 1:
					ones++
				default:
					others++
				}
			}
			final := 8*(m+1) + 8*(n+1) + 8*ones + 24*others
			t.Logf("%s, %d workers: %dx%d, %d exact 1s, %d other entries: allocated %d B, final arrays %d B",
				c.name, workers, m, n, ones, others, alloc, final)
			if bound := 2*final + 4*workers*n*8; alloc >= bound {
				t.Errorf("%s, %d workers: assembly allocated %d B, over 2 × %d B final + scratch rows = %d B",
					c.name, workers, alloc, final, bound)
			}
			if dense := m * n * 8; alloc >= dense/4 {
				t.Errorf("%s, %d workers: assembly allocated %d B, over a quarter of the %d B dense matrix",
					c.name, workers, alloc, dense)
			}
		}
	}
}

func TestSelectivitiesExtraction(t *testing.T) {
	samples := []LabeledQuery{
		{R: geom.UnitCube(1), Sel: 0.25},
		{R: geom.UnitCube(1), Sel: 0.75},
	}
	s := Selectivities(samples)
	if len(s) != 2 || s[0] != 0.25 || s[1] != 0.75 {
		t.Fatalf("Selectivities = %v", s)
	}
}
