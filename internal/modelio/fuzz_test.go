package modelio

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bvh"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/gmm"
	"repro/internal/hist"
	"repro/internal/ptshist"
)

// fuzzSeedModels returns one model of each saved shape: a 256-bucket grid
// (indexed, so its snapshot carries a leaf order), a box model below the
// indexing threshold, a PTSHIST and a Gaussian mixture.
func fuzzSeedModels() []core.Model {
	rng := rand.New(rand.NewSource(3))
	pts := &ptshist.Model{}
	for i := 0; i < 20; i++ {
		pts.Points = append(pts.Points, geom.Point{rng.Float64(), rng.Float64()})
		pts.Weights = append(pts.Weights, 0.05)
	}
	mix := &gmm.Model{}
	for i := 0; i < 4; i++ {
		mix.Components = append(mix.Components, gmm.Component{
			Mean:  geom.Point{rng.Float64(), rng.Float64()},
			Sigma: 0.05 + 0.1*rng.Float64(),
		})
		mix.Weights = append(mix.Weights, 0.25)
	}
	return []core.Model{gridModel(16), gridModel(4), pts, mix}
}

// modelDim is the dimension a loaded model answers queries in.
func modelDim(m core.Model) int {
	switch t := m.(type) {
	case *hist.Model:
		if len(t.Buckets) > 0 {
			return t.Buckets[0].Dim()
		}
	case *ptshist.Model:
		if len(t.Points) > 0 {
			return len(t.Points[0])
		}
	case *gmm.Model:
		if len(t.Components) > 0 {
			return len(t.Components[0].Mean)
		}
	}
	return 0
}

// fuzzQueries is a fixed set of d-dimensional boxes inside the unit cube:
// the cube itself, centred, corner and staggered boxes, a thin slab, a
// point, and two boxes with corners near 1e-160 that straddle a tiny
// bucket.
func fuzzQueries(d int) []geom.Box {
	box := func(lo, hi func(i int) float64) geom.Box {
		b := geom.Box{Lo: make(geom.Point, d), Hi: make(geom.Point, d)}
		for i := 0; i < d; i++ {
			b.Lo[i], b.Hi[i] = lo(i), hi(i)
		}
		return b
	}
	at := func(v float64) func(int) float64 { return func(int) float64 { return v } }
	// first is v on axis 0 and rest on every other axis.
	first := func(v, rest float64) func(int) float64 {
		return func(i int) float64 {
			if i == 0 {
				return v
			}
			return rest
		}
	}
	stagger := func(i int) float64 { return 0.1 * float64(i%5) }
	return []geom.Box{
		box(at(0), at(1)),
		box(at(0.25), at(0.75)),
		box(at(0), at(0.5)),
		box(at(0.5), at(1)),
		box(stagger, func(i int) float64 { return stagger(i) + 0.35 }),
		box(at(0), first(1e-3, 1)),
		box(at(0.3), at(0.3)),
		box(at(1e-160-1e-170), at(0.05)),
		box(first(5e-161, 0), at(0.05)),
	}
}

// FuzzLoadAnyBytes feeds arbitrary bytes to the model loader. Whatever
// the input, loading must not panic and every failure must wrap one of the
// four typed errors. A model that loads must answer boxes inside the unit
// cube with finite values in [0,1]; a box histogram must also answer a box
// that contains all of its buckets with its weight total (clamped to 1)
// and agree with the flat kernel over its own buckets, so no stored
// structure can change what its buckets and weights say.
func FuzzLoadAnyBytes(f *testing.F) {
	for _, m := range fuzzSeedModels() {
		var jbuf, bbuf bytes.Buffer
		if err := Save(&jbuf, m); err != nil {
			f.Fatal(err)
		}
		if err := SaveBinary(&bbuf, m); err != nil {
			f.Fatal(err)
		}
		for _, data := range [][]byte{jbuf.Bytes(), bbuf.Bytes()} {
			f.Add(data)
			f.Add(data[:len(data)/2])
			f.Add(data[:len(data)-1])
		}
	}
	forged, err := os.ReadFile(filepath.Join("testdata", "grid16_nanroot.snap"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(forged)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadAnyBytes(data)
		if err != nil {
			if !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrUnknownVersion) &&
				!errors.Is(err, ErrUnknownType) && !errors.Is(err, ErrInvalidModel) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		d := modelDim(m)
		queries := fuzzQueries(d)
		for qi, q := range queries {
			if v := m.Estimate(q); !(v >= 0 && v <= 1) {
				t.Fatalf("%T answers query %d %v with %v", m, qi, q, v)
			}
		}
		hm, ok := m.(*hist.Model)
		if !ok {
			return
		}
		total := 0.0
		for _, w := range hm.Weights {
			total += w
		}
		all := geom.Box{Lo: make(geom.Point, d), Hi: make(geom.Point, d)}
		for i := 0; i < d; i++ {
			all.Lo[i], all.Hi[i] = -1, 2
		}
		if v := hm.Estimate(all); math.Abs(v-min(1, total)) > 1e-9 {
			t.Fatalf("box over every bucket answers %v, weights total %v", v, total)
		}
		for qi, q := range queries {
			if v, flat := hm.Estimate(q), bvh.EstimateFlat(hm.Buckets, hm.Weights, q); math.Abs(v-flat) > 1e-9 {
				t.Fatalf("query %d %v answers %v, flat kernel %v", qi, q, v, flat)
			}
		}
	})
}
