package online

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/bvh"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/hist"
	"repro/internal/modelio"
	"repro/internal/rng"
)

// TestCoverageRowsMatchFreshTree: the updater enumerates coverage through
// the model's own index. Its rows — bucket order and the bits of every
// fraction — must equal those of a tree freshly built over the same
// buckets, for a built model and for one loaded from a binary snapshot,
// before and after an update republishes the model.
func TestCoverageRowsMatchFreshTree(t *testing.T) {
	const k = 24 // 576 buckets, above bvh.IndexThreshold
	buckets := make([]geom.Box, 0, k*k)
	weights := make([]float64, 0, k*k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			buckets = append(buckets, geom.NewBox(
				geom.Point{float64(i) / k, float64(j) / k},
				geom.Point{float64(i+1) / k, float64(j+1) / k}))
			weights = append(weights, float64((i*7+j*3)%5)/float64(2*k*k))
		}
	}
	built := &hist.Model{Buckets: buckets, Weights: weights}
	var buf bytes.Buffer
	if err := modelio.SaveBinary(&buf, built); err != nil {
		t.Fatal(err)
	}
	loaded, err := modelio.LoadBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	fresh := bvh.Build(buckets, weights)

	r := rng.New(17)
	queries := []geom.Range{geom.UnitCube(2), geom.NewBall(geom.Point{0.4, 0.6}, 0.3)}
	for len(queries) < 40 {
		a, b, c, d := r.Float64(), r.Float64(), r.Float64(), r.Float64()
		queries = append(queries, geom.NewBox(geom.Point{min(a, b), min(c, d)}, geom.Point{max(a, b), max(c, d)}))
	}
	for _, c := range []struct {
		name string
		m    core.Model
	}{{"built", built}, {"loaded", loaded}} {
		name, m := c.name, c.m
		up, ok := ForModel(m, Options{})
		if !ok {
			t.Fatalf("%s: ForModel rejected the model", name)
		}
		u := up.(*weightUpdater)
		if u.tree == nil || u.tree != m.(indexed).IndexTree() {
			t.Fatalf("%s: updater does not use the model's own index", name)
		}
		check := func(stage string) {
			for qi, q := range queries {
				var wantIdx []int
				var wantFrac []float64
				fresh.ForEachOverlap(q, func(j int, f float64) {
					wantIdx = append(wantIdx, j)
					wantFrac = append(wantFrac, f)
				})
				idx, frac := u.coverage(buckets, q)
				if len(idx) != len(wantIdx) {
					t.Fatalf("%s %s query %d: %d coverage entries, fresh tree has %d", name, stage, qi, len(idx), len(wantIdx))
				}
				for e := range idx {
					if idx[e] != wantIdx[e] || math.Float64bits(frac[e]) != math.Float64bits(wantFrac[e]) {
						t.Fatalf("%s %s query %d entry %d: (%d, %v), fresh tree (%d, %v)",
							name, stage, qi, e, idx[e], frac[e], wantIdx[e], wantFrac[e])
					}
				}
			}
		}
		check("base")
		if nm, _ := up.Apply([]core.LabeledQuery{{R: queries[2], Sel: 0.5}}); nm == nil {
			t.Fatalf("%s: update not applied", name)
		}
		check("after update")
	}
}
