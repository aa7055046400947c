package quadtree

import (
	"math"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

func TestSingleNodeTree(t *testing.T) {
	tr := New(2)
	if tr.NumLeaves() != 1 {
		t.Fatalf("fresh tree has %d leaves", tr.NumLeaves())
	}
	leaves := tr.Leaves()
	if len(leaves) != 1 || !leaves[0].Equal(geom.UnitCube(2)) {
		t.Fatalf("fresh tree leaves = %v", leaves)
	}
}

func TestInsertSplits(t *testing.T) {
	tr := New(2)
	// A query covering the whole cube with selectivity 1 and tiny τ must
	// split the root.
	q := geom.UnitCube(2)
	tr.Insert(q, 1.0, 1.0, 0.3)
	if tr.NumLeaves() != 4 {
		t.Fatalf("leaves after one split = %d, want 4", tr.NumLeaves())
	}
	// Each child carries p = 0.25 ≤ 0.3, so no further splits.
	if tr.Depth() != 1 {
		t.Fatalf("depth = %d, want 1", tr.Depth())
	}
}

func TestInsertRecursesUnderSmallTau(t *testing.T) {
	tr := New(2)
	tr.Insert(geom.UnitCube(2), 1.0, 1.0, 0.05)
	// p(root)=1 > τ, p(child)=0.25 > τ, p(grandchild)=0.0625 > 0.05,
	// p(great-grandchild)=~0.0156 ≤ 0.05 → depth 3, 64 leaves.
	if tr.Depth() != 3 {
		t.Fatalf("depth = %d, want 3", tr.Depth())
	}
	if tr.NumLeaves() != 64 {
		t.Fatalf("leaves = %d, want 64", tr.NumLeaves())
	}
}

func TestZeroSelectivityNoSplit(t *testing.T) {
	tr := New(2)
	tr.Insert(geom.UnitCube(2), 0, 1.0, 0.01)
	if tr.NumLeaves() != 1 {
		t.Fatalf("zero-selectivity query split the tree: %d leaves", tr.NumLeaves())
	}
}

func TestSplitsFollowQueryGeometry(t *testing.T) {
	tr := New(2)
	// A small query in the lower-left corner: only that region refines.
	q := geom.NewBox(geom.Point{0, 0}, geom.Point{0.25, 0.25})
	tr.Insert(q, 0.5, q.Volume(), 0.01)
	leaves := tr.Leaves()
	// Leaves intersecting the query must be smaller than leaves far away.
	var smallIn, bigOut bool
	for _, l := range leaves {
		if q.IntersectsBox(l) && l.Volume() < 0.25 {
			smallIn = true
		}
		if !q.IntersectsBox(l) && l.Volume() >= 0.25 {
			bigOut = true
		}
	}
	if !smallIn || !bigOut {
		t.Fatalf("refinement not localized: smallIn=%v bigOut=%v leaves=%d", smallIn, bigOut, len(leaves))
	}
}

func leavesKey(boxes []geom.Box) []string {
	keys := make([]string, len(boxes))
	for i, b := range boxes {
		keys[i] = b.String()
	}
	sort.Strings(keys)
	return keys
}

// randomRange draws a box, a halfspace or a ball (class 0, 1, 2) in
// [0,1]^dim, with its clipped volume.
func randomRange(r *rng.RNG, dim, class int) (geom.Range, float64) {
	center := make(geom.Point, dim)
	for j := range center {
		center[j] = r.Float64()
	}
	var q geom.Range
	switch class {
	case 0:
		sides := make([]float64, dim)
		for j := range sides {
			sides[j] = r.Float64()
		}
		q = geom.BoxFromCenter(center, sides)
	case 1:
		a := make(geom.Point, dim)
		b := 0.0
		for j := range a {
			a[j] = 2*r.Float64() - 1
			b += a[j] * center[j]
		}
		q = geom.NewHalfspace(a, b)
	default:
		q = geom.NewBall(center, 0.05+0.5*r.Float64())
	}
	return q, q.IntersectBoxVolume(geom.UnitCube(dim))
}

// Lemma A.4: the partition is independent of the order in which training
// queries are inserted (without a leaf cap), for boxes, halfspaces and
// balls alike: a node splits when its MinTau score exceeds τ, whatever the
// order. Ball volumes in 3-D come from QMC, so those trials are few.
func TestOrderIndependence(t *testing.T) {
	r := rng.New(2022)
	for trial := 0; trial < 45; trial++ {
		dim, class := 1+trial/3%3, trial%3 // five trials per pair
		n := 5 + r.IntN(15)
		if dim == 3 && class == 2 {
			n = 3 + r.IntN(3)
		}
		samples := make([]Sample, n)
		for i := range samples {
			q, vol := randomRange(r, dim, class)
			samples[i] = Sample{R: q, S: r.Float64(), RVol: vol}
		}
		tau := 0.02 + 0.1*r.Float64()
		base := leavesKey(BuildFromQueries(dim, samples, tau).Leaves())
		for perm := 0; perm < 5; perm++ {
			shuffled := make([]Sample, n)
			for i, idx := range r.Perm(n) {
				shuffled[i] = samples[idx]
			}
			got := leavesKey(BuildFromQueries(dim, shuffled, tau).Leaves())
			if len(got) != len(base) {
				t.Fatalf("trial %d (d=%d class %d): leaf count differs across orders: %d vs %d", trial, dim, class, len(got), len(base))
			}
			for i := range got {
				if got[i] != base[i] {
					t.Fatalf("trial %d (d=%d class %d): partitions differ at %d: %s vs %s", trial, dim, class, i, got[i], base[i])
				}
			}
		}
	}
}

// MinTau is the exact threshold at which the uncapped tree first fits the
// cap: at v it has at most maxLeaves leaves, and just below v it has more.
// Trials cover every range class, tied selectivities and repeated queries
// (whose node scores tie), a depth cap, and caps from 1 to 600.
func TestMinTauIsExactThreshold(t *testing.T) {
	r := rng.New(1999)
	for trial := 0; trial < 150; trial++ {
		dim := 1 + r.IntN(3)
		class := trial % 3
		if dim == 3 && class == 2 {
			dim = 2 // QMC volumes: TestOrderIndependence covers 3-D balls
		}
		n := 1 + r.IntN(25)
		samples := make([]Sample, n)
		for i := range samples {
			q, vol := randomRange(r, dim, class)
			s := r.Float64()
			if trial%2 == 0 {
				s = []float64{0.25, 0.5, 1}[r.IntN(3)]
			}
			samples[i] = Sample{R: q, S: s, RVol: vol}
		}
		if trial%4 == 0 {
			samples = append(samples, Sample{R: geom.UnitCube(dim), S: 1, RVol: 1})
			samples = append(samples, samples[:n/2]...)
		}
		maxLeaves := 1 + r.IntN(600)
		var opts []Option
		if trial%5 == 0 {
			opts = append(opts, WithMaxDepth(1+r.IntN(4)))
		}
		v := MinTau(dim, samples, maxLeaves, opts...)
		if math.IsInf(v, 0) || v < 0 {
			t.Fatalf("trial %d: MinTau = %v", trial, v)
		}
		if got := BuildFromQueries(dim, samples, v, opts...).NumLeaves(); got > maxLeaves {
			t.Fatalf("trial %d: %d leaves at τ = MinTau = %v, cap %d", trial, got, v, maxLeaves)
		}
		if v == 0 {
			continue
		}
		below := math.Nextafter(v, 0)
		if got := BuildFromQueries(dim, samples, below, opts...).NumLeaves(); got <= maxLeaves {
			t.Fatalf("trial %d: %d leaves just below MinTau = %v, cap %d", trial, got, v, maxLeaves)
		}
	}
}

func TestMinTauEdges(t *testing.T) {
	cube := Sample{R: geom.UnitCube(2), S: 1, RVol: 1}
	if v := MinTau(2, []Sample{cube}, 0); !math.IsInf(v, 1) {
		t.Fatalf("cap 0: MinTau = %v, want +Inf", v)
	}
	// The root scores 1 and its four children 1/4 each: one split fits a
	// cap of 4, the five that follow do not fit 15.
	if v := MinTau(2, []Sample{cube}, 4); v != 0.25 {
		t.Fatalf("cap 4: MinTau = %v, want 0.25", v)
	}
	if v := MinTau(2, []Sample{cube}, 15); v != 0.25 {
		t.Fatalf("cap 15: MinTau = %v, want 0.25", v)
	}
	if v := MinTau(2, []Sample{cube}, 16); v != 0.0625 {
		t.Fatalf("cap 16: MinTau = %v, want 0.0625", v)
	}
	if v := MinTau(2, []Sample{cube}, 1); v != 1 {
		t.Fatalf("cap 1: MinTau = %v, want 1", v)
	}
	// The depth cap bounds the tree whatever τ is.
	if v := MinTau(2, []Sample{cube}, 16, WithMaxDepth(2)); v != 0 {
		t.Fatalf("depth 2, cap 16: MinTau = %v, want 0", v)
	}
	// Samples InsertCounted ignores split nothing.
	if v := MinTau(2, []Sample{{R: geom.UnitCube(2), S: 0, RVol: 1}}, 1); v != 0 {
		t.Fatalf("zero selectivity: MinTau = %v, want 0", v)
	}
	// A NaN score splits at any τ, as `p <= tau` lets it through.
	if v := MinTau(2, []Sample{{R: geom.UnitCube(2), S: math.NaN(), RVol: 1}}, 100); !math.IsInf(v, 1) {
		t.Fatalf("NaN selectivity: MinTau = %v, want +Inf", v)
	}
}

// The leaves always partition the unit cube: volumes sum to 1, pairwise
// interior-disjoint.
func TestLeavesPartitionUnitCube(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 10; trial++ {
		dim := 1 + r.IntN(3)
		samples := make([]Sample, 10)
		for i := range samples {
			center := make(geom.Point, dim)
			sides := make([]float64, dim)
			for j := 0; j < dim; j++ {
				center[j] = r.Float64()
				sides[j] = r.Float64()
			}
			q := geom.BoxFromCenter(center, sides)
			samples[i] = Sample{R: q, S: r.Float64(), RVol: q.Volume()}
		}
		tr := BuildFromQueries(dim, samples, 0.05)
		leaves := tr.Leaves()
		if len(leaves) != tr.NumLeaves() {
			t.Fatalf("NumLeaves %d != len(Leaves) %d", tr.NumLeaves(), len(leaves))
		}
		total := 0.0
		for _, l := range leaves {
			total += l.Volume()
		}
		if total < 0.999999 || total > 1.000001 {
			t.Fatalf("leaf volumes sum to %v", total)
		}
		for i := range leaves {
			for j := i + 1; j < len(leaves); j++ {
				if v := leaves[i].IntersectBoxVolume(leaves[j]); v > 1e-12 {
					t.Fatalf("leaves %d and %d overlap with volume %v", i, j, v)
				}
			}
		}
	}
}

func TestMaxLeavesCap(t *testing.T) {
	tr := New(2, WithMaxLeaves(10))
	for i := 0; i < 5; i++ {
		tr.Insert(geom.UnitCube(2), 1.0, 1.0, 0.0001)
	}
	if tr.NumLeaves() > 10 {
		t.Fatalf("leaf cap exceeded: %d", tr.NumLeaves())
	}
}

func TestMaxDepthCap(t *testing.T) {
	tr := New(1, WithMaxDepth(3))
	tr.Insert(geom.UnitCube(1), 1.0, 1.0, 1e-9)
	if tr.Depth() > 3 {
		t.Fatalf("depth cap exceeded: %d", tr.Depth())
	}
}

func TestBallQueryRefinement(t *testing.T) {
	// Non-box ranges drive the same splitting machinery.
	tr := New(2)
	b := geom.NewBall(geom.Point{0.5, 0.5}, 0.2)
	tr.Insert(b, 0.8, b.IntersectBoxVolume(geom.UnitCube(2)), 0.02)
	if tr.NumLeaves() <= 4 {
		t.Fatalf("ball query did not refine the tree: %d leaves", tr.NumLeaves())
	}
	// Leaves near the center should be finer than corner leaves.
	leaves := tr.Leaves()
	var insideMin, outsideMax float64 = 1, 0
	for _, l := range leaves {
		if b.IntersectsBox(l) {
			insideMin = min(insideMin, l.Volume())
		} else {
			outsideMax = max(outsideMax, l.Volume())
		}
	}
	if insideMin >= outsideMax {
		t.Fatalf("refinement not concentrated near ball: insideMin=%v outsideMax=%v", insideMin, outsideMax)
	}
}

// Lemma A.2: a single insertion visits O((s/τ)·log(s/(τ·vol R))) nodes. We
// validate the bound empirically with a generous constant across random
// queries and thresholds.
func TestInsertVisitBoundLemmaA2(t *testing.T) {
	r := rng.New(4242)
	for trial := 0; trial < 120; trial++ {
		tr := New(2)
		c := geom.Point{r.Float64(), r.Float64()}
		sides := []float64{0.1 + 0.8*r.Float64(), 0.1 + 0.8*r.Float64()}
		q := geom.BoxFromCenter(c, sides)
		vol := q.Volume()
		if vol < 1e-4 {
			continue
		}
		s := 0.05 + 0.9*r.Float64()
		tau := 0.002 + 0.05*r.Float64()
		visited := tr.InsertCounted(q, s, vol, tau)
		ratio := s / tau
		logTerm := math.Log2(math.Max(2, s/(tau*vol)))
		bound := 64 * ratio * logTerm // generous constant for the O(·)
		if float64(visited) > bound {
			t.Fatalf("trial %d: visited %d > bound %v (s=%v τ=%v vol=%v)",
				trial, visited, bound, s, tau, vol)
		}
	}
}

// The visit count scales roughly linearly in 1/τ (the Lemma A.2 leading
// term): quadrupling 1/τ should not multiply visits by much more than 4×
// (log slack allowed).
func TestInsertVisitScalesWithTau(t *testing.T) {
	q := geom.NewBox(geom.Point{0.1, 0.1}, geom.Point{0.9, 0.9})
	vol := q.Volume()
	visitsAt := func(tau float64) int {
		tr := New(2)
		return tr.InsertCounted(q, 0.8, vol, tau)
	}
	v1 := visitsAt(0.02)
	v2 := visitsAt(0.005)
	if v2 <= v1 {
		t.Fatalf("smaller τ did not increase visits: %d vs %d", v1, v2)
	}
	if float64(v2) > 10*4*float64(v1) {
		t.Fatalf("visit growth superlinear in 1/τ: %d vs %d", v1, v2)
	}
}
