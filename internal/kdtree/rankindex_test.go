package kdtree

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/rng"
)

// walkBox is a box Count does not hand to the rank index: the type switch
// takes only geom.Box values, so counting a walkBox walks the kd-tree.
type walkBox struct{ geom.Box }

var negZero = math.Copysign(0, -1)

// tiedPoints draws n points on the 1/1000 grid, so coordinates tie. About
// one point in eight repeats an earlier one, and zeros are −0 or +0 at
// random.
func tiedPoints(r *rng.RNG, n, d int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		if i > 0 && r.IntN(8) == 0 {
			pts[i] = pts[r.IntN(i)].Clone()
			continue
		}
		p := make(geom.Point, d)
		for j := range p {
			k := r.IntN(1001)
			p[j] = float64(k) / 1000
			if k == 0 && r.IntN(2) == 0 {
				p[j] = negZero
			}
		}
		pts[i] = p
	}
	return pts
}

// boxSampler draws test boxes over one point set.
type boxSampler struct {
	r      *rng.RNG
	pts    []geom.Point
	lo, hi geom.Point // per dimension, the extreme coordinates that are not NaN
}

func newBoxSampler(r *rng.RNG, pts []geom.Point, d int) *boxSampler {
	s := &boxSampler{r: r, pts: pts, lo: make(geom.Point, d), hi: make(geom.Point, d)}
	for a := 0; a < d; a++ {
		s.lo[a], s.hi[a] = math.Inf(1), math.Inf(-1)
		for _, p := range pts {
			if p[a] < s.lo[a] {
				s.lo[a] = p[a]
			}
			if p[a] > s.hi[a] {
				s.hi[a] = p[a]
			}
		}
	}
	return s
}

// corner draws one side of a box along dimension a: a data value, the
// extremes and their neighbours (so a side keeps all but one point),
// signed zeros, values outside [0,1], or a uniform draw.
func (s *boxSampler) corner(a int) float64 {
	r := s.r
	switch r.IntN(12) {
	case 0:
		return s.lo[a]
	case 1:
		return s.hi[a]
	case 2:
		return math.Nextafter(s.lo[a], math.Inf(1))
	case 3:
		return math.Nextafter(s.hi[a], math.Inf(-1))
	case 4:
		return negZero
	case 5:
		return 0
	case 6:
		return -0.5 + 2*r.Float64()
	case 7:
		return []float64{math.Inf(-1), math.Inf(1), -3, 4}[r.IntN(4)]
	case 8:
		return r.Float64()
	}
	if len(s.pts) == 0 {
		return r.Float64()
	}
	return s.pts[r.IntN(len(s.pts))][a]
}

// box draws a box of the kinds the index must answer like the walk:
// corners on data values (lo = hi on one included), inverted sides, sides
// that keep everything or all but one point, corners outside [0,1] and
// signed zeros. nanCorner puts a NaN in one corner.
func (s *boxSampler) box(nanCorner bool) geom.Box {
	d := len(s.lo)
	b := geom.Box{Lo: make(geom.Point, d), Hi: make(geom.Point, d)}
	for a := 0; a < d; a++ {
		switch s.r.IntN(4) {
		case 0: // a side that keeps every point
			b.Lo[a], b.Hi[a] = math.Inf(-1), math.Inf(1)
		case 1: // a point-thin side, often on a data value
			v := s.corner(a)
			b.Lo[a], b.Hi[a] = v, v
		default: // either order, so some sides are inverted
			b.Lo[a], b.Hi[a] = s.corner(a), s.corner(a)
		}
	}
	if nanCorner && d > 0 {
		if s.r.IntN(2) == 0 {
			b.Lo[s.r.IntN(d)] = math.NaN()
		} else {
			b.Hi[s.r.IntN(d)] = math.NaN()
		}
	}
	return b
}

// TestRankIndexMatchesWalkAndBrute checks every box count against the
// kd-tree walk and against brute force: across dimensions, sizes either
// side of a 64-bit word and of the checkpoint spacing, tied and
// duplicated coordinates, and the box kinds of boxSampler. One box in ten
// has a NaN corner, which the index answers itself; a tree holding a NaN
// coordinate gives the walk's answer, which is brute force's.
func TestRankIndexMatchesWalkAndBrute(t *testing.T) {
	r := rng.New(11)
	for _, d := range []int{1, 2, 3, 5, 7, 13} {
		for _, n := range []int{0, 1, 63, 64, 65, 1000, 20000} {
			for _, nanPoint := range []bool{false, true} {
				if nanPoint && n == 0 {
					continue
				}
				pts := tiedPoints(r, n, d)
				if nanPoint {
					pts[r.IntN(n)][r.IntN(d)] = math.NaN()
				}
				tr := Build(pts)
				bs := newBoxSampler(r, pts, d)
				trials := 300
				if n >= 20000 {
					trials = 40
				}
				for i := 0; i < trials; i++ {
					q := bs.box(i%10 == 9)
					got, walk := tr.Count(q), tr.Count(walkBox{q})
					if got != walk {
						t.Fatalf("d=%d n=%d nanPoint=%v box %v: count %d, walk %d", d, n, nanPoint, q, got, walk)
					}
					if brute := BruteCount(pts, q); got != brute {
						t.Fatalf("d=%d n=%d box %v: count %d, brute force %d", d, n, q, got, brute)
					}
				}
			}
		}
	}
}

// TestRefusalsTakeTheWalk checks which counts build which structure: a
// box the index takes builds the index and not the walk's tree; a box
// behind a pointer or a wrapper, and every other range class, build the
// walk's tree and not the index; a box on a tree holding a NaN builds no
// index and walks.
func TestRefusalsTakeTheWalk(t *testing.T) {
	pts := tiedPoints(rng.New(12), 500, 3)
	box := geom.NewBox(geom.Point{0.1, 0.2, 0.3}, geom.Point{0.6, 0.7, 0.8})
	tr := Build(pts)
	tr.Count(box)
	tr.Count(geom.UnitCube(3))
	if tr.idx == nil || tr.root != nil {
		t.Fatalf("box counts: index built %v, walk built %v", tr.idx != nil, tr.root != nil)
	}
	for _, q := range []geom.Range{&box, walkBox{box}, geom.NewBall(geom.Point{0.5, 0.5, 0.5}, 0.3)} {
		tr := Build(pts)
		tr.Count(q)
		if tr.idx != nil || tr.root == nil {
			t.Errorf("%T %v: index built %v, walk built %v", q, q, tr.idx != nil, tr.root != nil)
		}
	}
	withNaN := tiedPoints(rng.New(12), 500, 3)
	withNaN[7][1] = math.NaN()
	tr = Build(withNaN)
	tr.Count(box)
	if tr.idx != nil || tr.root == nil {
		t.Fatalf("box on a tree holding a NaN: index built %v, walk built %v", tr.idx != nil, tr.root != nil)
	}
}

// TestCountDimensionMismatch checks that a range of the wrong dimension
// panics with one message on both paths, and that an empty tree still
// counts 0 for any range.
func TestCountDimensionMismatch(t *testing.T) {
	tr := Build(randomPoints(rng.New(13), 2000, 2))
	cases := []struct {
		name string
		r    geom.Range
	}{
		{"1-D box [0,1]", geom.UnitCube(1)},
		{"1-D box [0.2,0.4]", geom.NewBox(geom.Point{0.2}, geom.Point{0.4})},
		{"3-D unit box", geom.UnitCube(3)},
		{"1-D ball of radius 2", geom.NewBall(geom.Point{0.5}, 2)},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if got := recover(); got != "kdtree: Tree.Count dimension mismatch" {
					t.Errorf("%s: recovered %v", c.name, got)
				}
			}()
			tr.Count(c.r)
		}()
		if got := Build(nil).Count(c.r); got != 0 {
			t.Errorf("%s: empty tree counted %d", c.name, got)
		}
	}
}

// TestConcurrentCounts counts boxes and balls from many goroutines on one
// fresh tree, so the lazy builds of the index and the walk race each
// other and the counts on both paths. Run it under -race.
func TestConcurrentCounts(t *testing.T) {
	r := rng.New(14)
	pts := tiedPoints(r, 3000, 3)
	bs := newBoxSampler(r, pts, 3)
	qs := make([]geom.Range, 64)
	want := make([]int, len(qs))
	for i := range qs {
		if i%2 == 0 {
			qs[i] = bs.box(false)
		} else {
			qs[i] = geom.NewBall(geom.Point{r.Float64(), r.Float64(), r.Float64()}, 0.4*r.Float64())
		}
		want[i] = BruteCount(pts, qs[i])
	}
	tr := Build(pts)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range qs {
				i := (k + g*7) % len(qs)
				if got := tr.Count(qs[i]); got != want[i] {
					errs[g] = fmt.Errorf("goroutine %d range %d: count %d, brute force %d", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestIndexFreedByOneGC checks that an index nobody references is freed
// by the next GC. Its scratch pool is on the runtime's list of used pools
// until the GC after next; were the pool a field of the index, that list
// would keep the whole index alive one GC longer, and the train
// workload's trainer would start with its last input set's indexes still
// on the heap.
func TestIndexFreedByOneGC(t *testing.T) {
	var freed atomic.Bool
	func() {
		tr := Build(randomPoints(rng.New(15), 5000, 3))
		tr.Count(geom.NewBox(geom.Point{0.1, 0.1, 0.1}, geom.Point{0.5, 0.5, 0.5}))
		runtime.SetFinalizer(tr.idx, func(*rankIndex) { freed.Store(true) })
	}()
	runtime.GC()
	for i := 0; i < 200 && !freed.Load(); i++ {
		time.Sleep(10 * time.Millisecond) // the finalizer runs on its own goroutine
	}
	if !freed.Load() {
		t.Fatal("the index outlived the GC after its tree was dropped")
	}
}
