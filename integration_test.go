package selest

// Cross-cutting integration tests: properties that must hold across every
// learner in the repository — the agnostic-learning guarantees of
// Section 2.1 (noisy labels), determinism, validity of estimates, and
// persistence round-trips under realistic workloads.

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/rng"
)

func allTrainers(dim, n int) []Trainer {
	k := 4 * n
	return []Trainer{
		NewQuadHist(dim, k),
		NewPtsHist(dim, k, 3),
		NewQuickSel(dim, 5),
		NewIsomer(dim, 0),
		NewGaussMix(dim, maxI(n/4, 8), 7),
	}
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Agnostic learning (the Remark after Theorem 2.1): labels need not come
// from any data distribution. Training on labels corrupted with bounded
// noise must still produce a model close to the noiseless one.
func TestNoisyLabelRobustness(t *testing.T) {
	ds := NewDataset(Power, 8000, 1).Project([]int{0, 1})
	gen := NewWorkload(ds, 42)
	spec := Spec{Class: OrthogonalRange, Centers: DataDriven}
	train, test := gen.TrainTest(spec, 200, 200)

	// Corrupt labels with ±0.05 uniform noise, clipped to [0,1].
	r := rng.New(99)
	noisy := make([]LabeledQuery, len(train))
	for i, z := range train {
		s := z.Sel + 0.1*(r.Float64()-0.5)
		if s < 0 {
			s = 0
		}
		if s > 1 {
			s = 1
		}
		noisy[i] = LabeledQuery{R: z.R, Sel: s}
	}

	for _, mk := range []func() Trainer{
		func() Trainer { return NewQuadHist(2, 800) },
		func() Trainer { return NewPtsHist(2, 800, 3) },
	} {
		clean, err := mk().Train(train)
		if err != nil {
			t.Fatal(err)
		}
		dirty, err := mk().Train(noisy)
		if err != nil {
			t.Fatal(err)
		}
		cleanRMS := RMS(clean, test)
		dirtyRMS := RMS(dirty, test)
		// The noisy model may be worse, but bounded: the noise std is
		// ~0.029, so the degradation must stay within a few times that.
		if dirtyRMS > cleanRMS+0.06 {
			t.Fatalf("%s: noisy training degraded RMS from %v to %v", mk().Name(), cleanRMS, dirtyRMS)
		}
	}
}

// Every learner must produce valid selectivities (estimates in [0,1]) and
// ≈1 on the whole space, on every query class it supports.
func TestAllModelsProduceValidSelectivities(t *testing.T) {
	ds := NewDataset(Forest, 6000, 2).Project([]int{0, 1})
	gen := NewWorkload(ds, 9)
	spec := Spec{Class: OrthogonalRange, Centers: RandomCenters}
	train, test := gen.TrainTest(spec, 100, 200)
	for _, tr := range allTrainers(2, 100) {
		m, err := tr.Train(train)
		if err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		for _, z := range test {
			e := m.Estimate(z.R)
			if e < 0 || e > 1 || math.IsNaN(e) {
				t.Fatalf("%s: invalid estimate %v", tr.Name(), e)
			}
		}
		whole := m.Estimate(NewBox(Point{0, 0}, Point{1, 1}))
		// GaussMix mass can leak outside the cube; everyone else must
		// put (numerically) all mass inside.
		tol := 1e-6
		if tr.Name() == "GaussMix" {
			tol = 0.2
		}
		if whole < 1-tol-1e-9 || whole > 1+1e-9 {
			t.Fatalf("%s: whole-space estimate %v", tr.Name(), whole)
		}
	}
}

// Training is deterministic: same seed, same feedback → identical models.
func TestTrainingDeterminism(t *testing.T) {
	ds := NewDataset(Power, 5000, 4).Project([]int{0, 1})
	gen := NewWorkload(ds, 21)
	spec := Spec{Class: OrthogonalRange, Centers: DataDriven}
	train, test := gen.TrainTest(spec, 80, 100)
	for _, mk := range []func() Trainer{
		func() Trainer { return NewQuadHist(2, 320) },
		func() Trainer { return NewPtsHist(2, 320, 3) },
		func() Trainer { return NewQuickSel(2, 5) },
		func() Trainer { return NewGaussMix(2, 20, 7) },
	} {
		a, err := mk().Train(train)
		if err != nil {
			t.Fatal(err)
		}
		b, err := mk().Train(train)
		if err != nil {
			t.Fatal(err)
		}
		for _, z := range test {
			if a.Estimate(z.R) != b.Estimate(z.R) {
				t.Fatalf("%s: non-deterministic training", mk().Name())
			}
		}
	}
}

// Persistence: every trained model survives a save/load round trip with
// identical estimates, via the facade.
func TestPersistenceAcrossAllModels(t *testing.T) {
	ds := NewDataset(Census, 5000, 5).Project([]int{0, 4})
	gen := NewWorkload(ds, 13)
	spec := Spec{Class: OrthogonalRange, Centers: DataDriven}
	train, test := gen.TrainTest(spec, 60, 60)
	for _, tr := range allTrainers(2, 60) {
		m, err := tr.Train(train)
		if err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		var buf bytes.Buffer
		if err := SaveModel(&buf, m); err != nil {
			t.Fatalf("%s: save: %v", tr.Name(), err)
		}
		got, err := LoadModel(&buf)
		if err != nil {
			t.Fatalf("%s: load: %v", tr.Name(), err)
		}
		for _, z := range test {
			if math.Abs(m.Estimate(z.R)-got.Estimate(z.R)) > 1e-12 {
				t.Fatalf("%s: estimate drift after persistence", tr.Name())
			}
		}
	}
}

// Theorem 2.1 in action: the empirical error of QUADHIST decreases as the
// training size grows through a doubling schedule (allowing small
// non-monotonic wiggles between adjacent sizes but demanding an overall
// downward trend).
func TestLearningCurveTrend(t *testing.T) {
	ds := NewDataset(Power, 10000, 6).Project([]int{0, 1})
	gen := NewWorkload(ds, 33)
	spec := Spec{Class: OrthogonalRange, Centers: DataDriven}
	test := gen.Generate(spec, 300)
	sizes := []int{25, 50, 100, 200, 400}
	rms := make([]float64, len(sizes))
	for i, n := range sizes {
		m, err := NewQuadHist(2, 4*n).Train(gen.Generate(spec, n))
		if err != nil {
			t.Fatal(err)
		}
		rms[i] = RMS(m, test)
	}
	if rms[len(rms)-1] >= rms[0] {
		t.Fatalf("no improvement across the learning curve: %v", rms)
	}
	// The 16x-larger training set should at least halve the error.
	if rms[len(rms)-1] > rms[0]/2 {
		t.Fatalf("learning curve too flat: %v", rms)
	}
}

// Streaming and batch QUADHIST agree on held-out error when fed the same
// feedback with the same τ.
func TestStreamingMatchesBatch(t *testing.T) {
	ds := NewDataset(Power, 5000, 7).Project([]int{0, 1})
	gen := NewWorkload(ds, 3)
	spec := Spec{Class: OrthogonalRange, Centers: DataDriven}
	train, test := gen.TrainTest(spec, 150, 150)

	inc, err := NewIncrementalQuadHist(2, 0.01, 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	for _, z := range train {
		if err := inc.Observe(z.R, z.Sel); err != nil {
			t.Fatal(err)
		}
	}
	if err := inc.Refit(); err != nil {
		t.Fatal(err)
	}
	if rms := RMS(inc, test); rms > 0.1 {
		t.Fatalf("streaming RMS = %v", rms)
	}
}

// IndexModel must be estimate-identical, bit for bit, to the model it was
// given and pass through non-box-bucketed models unchanged.
func TestIndexModelEquivalence(t *testing.T) {
	ds := NewDataset(Power, 5000, 8).Project([]int{0, 1})
	gen := NewWorkload(ds, 19)
	spec := Spec{Class: OrthogonalRange, Centers: DataDriven}
	train, test := gen.TrainTest(spec, 120, 120)
	for _, tr := range []Trainer{NewQuadHist(2, 480), NewQuickSel(2, 5), NewIsomer(2, 0)} {
		m, err := tr.Train(train)
		if err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		idx := IndexModel(m)
		if idx.NumBuckets() != m.NumBuckets() {
			t.Fatalf("%s: bucket count drift", tr.Name())
		}
		for _, z := range test {
			if math.Float64bits(m.Estimate(z.R)) != math.Float64bits(idx.Estimate(z.R)) {
				t.Fatalf("%s: indexed estimate differs", tr.Name())
			}
		}
	}
	// PTSHIST passes through unchanged.
	pm, err := NewPtsHist(2, 100, 3).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	if IndexModel(pm) != pm {
		t.Fatal("point model not passed through")
	}
}
