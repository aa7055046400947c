package hist

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/solver"
	"repro/internal/workload"
)

func trainTest2D(t *testing.T, nTrain, nTest int) (train, test []core.LabeledQuery) {
	t.Helper()
	ds := dataset.Power(8000, 1).Project([]int{0, 1})
	g := workload.NewGenerator(ds, 42)
	return g.TrainTest(workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}, nTrain, nTest)
}

func TestTrainBasic(t *testing.T) {
	train, test := trainTest2D(t, 150, 150)
	m, err := New(2, 400).TrainHist(train)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumBuckets() == 0 || m.NumBuckets() > 400 {
		t.Fatalf("bucket count %d outside (0, 400]", m.NumBuckets())
	}
	// Weights on the simplex.
	sum := 0.0
	for _, w := range m.Weights {
		if w < -1e-12 {
			t.Fatalf("negative weight %v", w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("weights sum to %v", sum)
	}
	// Useful accuracy on held-out queries (loose sanity bound; the
	// precise curves are exercised by the experiment harness).
	if rms := core.RMS(m, test); rms > 0.15 {
		t.Fatalf("test RMS = %v, implausibly high", rms)
	}
	// Training error below trivial predictors.
	if rms := core.RMS(m, train); rms > 0.12 {
		t.Fatalf("train RMS = %v", rms)
	}
}

func TestEstimatesInRange(t *testing.T) {
	train, test := trainTest2D(t, 80, 200)
	m, err := New(2, 200).TrainHist(train)
	if err != nil {
		t.Fatal(err)
	}
	for _, z := range test {
		e := m.Estimate(z.R)
		if e < 0 || e > 1 {
			t.Fatalf("estimate %v outside [0,1]", e)
		}
	}
	// Whole-space query estimates ≈ 1 (all mass).
	if e := m.Estimate(geom.UnitCube(2)); math.Abs(e-1) > 1e-6 {
		t.Fatalf("unit-cube estimate = %v, want 1", e)
	}
}

// Histogram additivity: for a box split into two halves, the estimates add
// to the estimate of the whole (within fp tolerance) — the "consistency"
// property the paper requires of valid models.
func TestAdditivityOverDisjointBoxes(t *testing.T) {
	train, _ := trainTest2D(t, 100, 0)
	m, err := New(2, 300).TrainHist(train)
	if err != nil {
		t.Fatal(err)
	}
	whole := geom.NewBox(geom.Point{0.1, 0.2}, geom.Point{0.7, 0.9})
	left, right := whole.Split(0)
	sumParts := 0.0
	for j, b := range m.Buckets {
		v := b.Volume()
		if v == 0 {
			continue
		}
		sumParts += (left.IntersectBoxVolume(b) + right.IntersectBoxVolume(b)) / v * m.Weights[j]
	}
	eWhole := 0.0
	for j, b := range m.Buckets {
		v := b.Volume()
		if v == 0 {
			continue
		}
		eWhole += whole.IntersectBoxVolume(b) / v * m.Weights[j]
	}
	if math.Abs(sumParts-eWhole) > 1e-9 {
		t.Fatalf("additivity violated: %v + parts vs %v", sumParts, eWhole)
	}
}

// Monotonicity: enlarging a query can only increase the estimate.
func TestMonotonicity(t *testing.T) {
	train, _ := trainTest2D(t, 100, 0)
	m, err := New(2, 300).TrainHist(train)
	if err != nil {
		t.Fatal(err)
	}
	small := geom.NewBox(geom.Point{0.3, 0.3}, geom.Point{0.5, 0.5})
	big := geom.NewBox(geom.Point{0.2, 0.2}, geom.Point{0.6, 0.6})
	if m.Estimate(small) > m.Estimate(big)+1e-9 {
		t.Fatalf("monotonicity violated: %v > %v", m.Estimate(small), m.Estimate(big))
	}
}

func TestExplicitTau(t *testing.T) {
	train, _ := trainTest2D(t, 60, 0)
	coarse, err := (&Trainer{Dim: 2, Opts: Options{Tau: 0.2, MaxBuckets: 100000}}).TrainHist(train)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := (&Trainer{Dim: 2, Opts: Options{Tau: 0.01, MaxBuckets: 100000}}).TrainHist(train)
	if err != nil {
		t.Fatal(err)
	}
	if coarse.NumBuckets() >= fine.NumBuckets() {
		t.Fatalf("smaller τ should give more buckets: %d vs %d", coarse.NumBuckets(), fine.NumBuckets())
	}
}

func TestSearchTauHitsBudget(t *testing.T) {
	train, _ := trainTest2D(t, 100, 0)
	for _, budget := range []int{50, 200, 800} {
		m, err := New(2, budget).TrainHist(train)
		if err != nil {
			t.Fatal(err)
		}
		if m.NumBuckets() > budget {
			t.Fatalf("budget %d exceeded: %d buckets", budget, m.NumBuckets())
		}
		// The search should land reasonably close to the budget, not
		// collapse to a single bucket.
		if m.NumBuckets() < budget/8 {
			t.Fatalf("budget %d badly underused: %d buckets", budget, m.NumBuckets())
		}
	}
}

func TestMoreTrainingReducesError(t *testing.T) {
	// The learnability shape of Fig 9/11 at sanity-check scale.
	ds := dataset.Power(8000, 3).Project([]int{0, 1})
	g := workload.NewGenerator(ds, 7)
	spec := workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}
	test := g.Generate(spec, 300)
	var rmsSmall, rmsBig float64
	{
		m, err := New(2, 100).TrainHist(g.Generate(spec, 25))
		if err != nil {
			t.Fatal(err)
		}
		rmsSmall = core.RMS(m, test)
	}
	{
		m, err := New(2, 1200).TrainHist(g.Generate(spec, 300))
		if err != nil {
			t.Fatal(err)
		}
		rmsBig = core.RMS(m, test)
	}
	if rmsBig >= rmsSmall {
		t.Fatalf("300-query model (RMS %v) not better than 25-query model (RMS %v)", rmsBig, rmsSmall)
	}
}

func TestBallQueryTraining2D(t *testing.T) {
	ds := dataset.Power(6000, 5).Project([]int{0, 1})
	g := workload.NewGenerator(ds, 11)
	spec := workload.Spec{Class: workload.Ball, Centers: workload.DataDriven}
	train, test := g.TrainTest(spec, 100, 100)
	m, err := New(2, 300).TrainHist(train)
	if err != nil {
		t.Fatal(err)
	}
	if rms := core.RMS(m, test); rms > 0.2 {
		t.Fatalf("ball-query test RMS = %v", rms)
	}
}

func TestHalfspaceQueryTraining2D(t *testing.T) {
	ds := dataset.Power(6000, 6).Project([]int{0, 1})
	g := workload.NewGenerator(ds, 13)
	spec := workload.Spec{Class: workload.Halfspace, Centers: workload.DataDriven}
	train, test := g.TrainTest(spec, 100, 100)
	m, err := New(2, 300).TrainHist(train)
	if err != nil {
		t.Fatal(err)
	}
	if rms := core.RMS(m, test); rms > 0.2 {
		t.Fatalf("halfspace-query test RMS = %v", rms)
	}
}

func TestLInfObjective(t *testing.T) {
	train, _ := trainTest2D(t, 60, 0)
	tr := &Trainer{Dim: 2, Opts: Options{MaxBuckets: 80, Objective: ObjectiveLInf}}
	m, err := tr.TrainHist(train)
	if err != nil {
		t.Fatal(err)
	}
	linfLInf := core.LInf(m, train)
	// L∞-trained model should have training L∞ no worse than the
	// L2-trained model on the same buckets.
	tr2 := &Trainer{Dim: 2, Opts: Options{MaxBuckets: 80}}
	m2, err := tr2.TrainHist(train)
	if err != nil {
		t.Fatal(err)
	}
	if linfLInf > core.LInf(m2, train)+1e-6 {
		t.Fatalf("L∞ objective (%v) worse than L2 objective (%v) in L∞ norm on train",
			linfLInf, core.LInf(m2, train))
	}
}

func TestSolverChoiceEquivalence(t *testing.T) {
	train, test := trainTest2D(t, 80, 100)
	var models []*Model
	for _, method := range []solver.Method{solver.MethodNNLS, solver.MethodPGD} {
		tr := &Trainer{Dim: 2, Opts: Options{MaxBuckets: 150, Solver: method}}
		m, err := tr.TrainHist(train)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	d := core.RMS(models[0], test) - core.RMS(models[1], test)
	if math.Abs(d) > 0.03 {
		t.Fatalf("NNLS and PGD test RMS differ by %v", d)
	}
}

func TestEmptyTrainingSetFails(t *testing.T) {
	if _, err := New(2, 100).TrainHist(nil); err == nil {
		t.Fatal("training on empty set succeeded")
	}
}

func TestTrainerInterface(t *testing.T) {
	train, _ := trainTest2D(t, 30, 0)
	var tr core.Trainer = New(2, 64)
	if tr.Name() != "QuadHist" {
		t.Fatalf("name = %q", tr.Name())
	}
	m, err := tr.Train(train)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumBuckets() == 0 {
		t.Fatal("interface-trained model has no buckets")
	}
}

// SearchTau is monotone in its budget: a larger bucket budget never yields
// fewer buckets, and the cap is always respected.
func TestSearchTauMonotoneInBudget(t *testing.T) {
	train, _ := trainTest2D(t, 120, 0)
	prev := 0
	for _, budget := range []int{40, 80, 160, 320, 640} {
		m, err := New(2, budget).TrainHist(train)
		if err != nil {
			t.Fatal(err)
		}
		if m.NumBuckets() > budget {
			t.Fatalf("budget %d exceeded: %d", budget, m.NumBuckets())
		}
		if m.NumBuckets() < prev {
			t.Fatalf("bucket count fell from %d to %d as budget grew", prev, m.NumBuckets())
		}
		prev = m.NumBuckets()
	}
}

// Training is insensitive to training-set ordering in the respects the
// optimization pins down: identical buckets (Lemma A.4, exactly) and
// identical fitted training selectivities (the optimal A·w of a convex
// least-squares program is unique even when w itself is not — with more
// buckets than queries the weight vector is underdetermined, so held-out
// estimates may differ between equally-optimal solutions).
func TestModelOrderIndependentEndToEnd(t *testing.T) {
	ds := dataset.Power(4000, 9).Project([]int{0, 1})
	g := workload.NewGenerator(ds, 3)
	spec := workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}
	train, _ := g.TrainTest(spec, 60, 60)

	tr := &Trainer{Dim: 2, Opts: Options{Tau: 0.01, Solver: solver.MethodNNLS}}
	m1, err := tr.TrainHist(train)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := make([]core.LabeledQuery, len(train))
	r := rng.New(8)
	for i, idx := range r.Perm(len(train)) {
		shuffled[i] = train[idx]
	}
	m2, err := tr.TrainHist(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if m1.NumBuckets() != m2.NumBuckets() {
		t.Fatalf("bucket counts differ across orders: %d vs %d", m1.NumBuckets(), m2.NumBuckets())
	}
	for _, z := range train {
		a, b := m1.Estimate(z.R), m2.Estimate(z.R)
		if math.Abs(a-b) > 2e-3 {
			t.Fatalf("order-dependent fitted value: %v vs %v", a, b)
		}
	}
}
