package hist

import (
	"errors"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/workload"
)

func TestIncrementalRequiresTau(t *testing.T) {
	if _, err := NewIncremental(2, IncrementalOptions{}); err == nil {
		t.Fatal("zero Tau accepted")
	}
}

func TestIncrementalConvergesToBatchQuality(t *testing.T) {
	ds := dataset.Power(6000, 1).Project([]int{0, 1})
	g := workload.NewGenerator(ds, 42)
	spec := workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}
	train, test := g.TrainTest(spec, 200, 150)

	inc, err := NewIncremental(2, IncrementalOptions{Tau: 0.005, RefitEvery: 50})
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
	incRMS := core.RMS(inc, test)

	batch, err := (&Trainer{Dim: 2, Opts: Options{Tau: 0.005}}).TrainHist(train)
	if err != nil {
		t.Fatal(err)
	}
	batchRMS := core.RMS(batch, test)
	if math.Abs(incRMS-batchRMS) > 1e-9 {
		t.Fatalf("incremental RMS %v != batch RMS %v (same τ, same feedback)", incRMS, batchRMS)
	}
}

// Lemma A.4 in streaming form: two Incrementals fed the same feedback in
// different orders end with identical bucket sets.
func TestIncrementalOrderIndependence(t *testing.T) {
	ds := dataset.Power(4000, 2).Project([]int{0, 1})
	g := workload.NewGenerator(ds, 7)
	train := g.Generate(workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}, 60)

	buildKeys := func(order []int) []string {
		inc, err := NewIncremental(2, IncrementalOptions{Tau: 0.01, RefitEvery: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range order {
			if err := inc.Observe(train[i].R, train[i].Sel); err != nil {
				t.Fatal(err)
			}
		}
		if err := inc.Refit(); err != nil {
			t.Fatal(err)
		}
		m := inc.Snapshot()
		keys := make([]string, len(m.Buckets))
		for i, b := range m.Buckets {
			keys[i] = b.String()
		}
		sort.Strings(keys)
		return keys
	}

	base := make([]int, len(train))
	for i := range base {
		base[i] = i
	}
	keys1 := buildKeys(base)
	r := rng.New(3)
	for trial := 0; trial < 3; trial++ {
		keys2 := buildKeys(r.Perm(len(train)))
		if len(keys1) != len(keys2) {
			t.Fatalf("bucket counts differ: %d vs %d", len(keys1), len(keys2))
		}
		for i := range keys1 {
			if keys1[i] != keys2[i] {
				t.Fatalf("buckets differ at %d: %s vs %s", i, keys1[i], keys2[i])
			}
		}
	}
}

func TestIncrementalEstimateBeforeRefit(t *testing.T) {
	inc, err := NewIncremental(2, IncrementalOptions{Tau: 0.01, RefitEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// Uniform prior: estimate equals clipped volume.
	q := geom.NewBox(geom.Point{0.1, 0.1}, geom.Point{0.6, 0.6})
	if got := inc.Estimate(q); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("prior estimate = %v, want 0.25", got)
	}
	if inc.Snapshot() != nil {
		t.Fatal("snapshot before refit should be nil")
	}
}

func TestIncrementalRefitCadence(t *testing.T) {
	ds := dataset.Power(3000, 3).Project([]int{0, 1})
	g := workload.NewGenerator(ds, 9)
	train := g.Generate(workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}, 25)

	inc, err := NewIncremental(2, IncrementalOptions{Tau: 0.02, RefitEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i, z := range train {
		if err := inc.Observe(z.R, z.Sel); err != nil {
			t.Fatal(err)
		}
		if i == 9 && inc.Snapshot() == nil {
			t.Fatal("no refit after RefitEvery observations")
		}
	}
	if inc.Observed() != 25 {
		t.Fatalf("observed %d", inc.Observed())
	}
	// Model improves with feedback versus the uniform prior.
	test := g.Generate(workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}, 100)
	if err := inc.Refit(); err != nil {
		t.Fatal(err)
	}
	fitted := core.RMS(inc, test)
	prior, err := NewIncremental(2, IncrementalOptions{Tau: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	priorRMS := core.RMS(prior, test)
	if fitted >= priorRMS {
		t.Fatalf("fitted RMS %v not better than uniform prior %v", fitted, priorRMS)
	}
}

func TestIncrementalBucketCap(t *testing.T) {
	inc, err := NewIncremental(2, IncrementalOptions{Tau: 1e-6, MaxBuckets: 30, RefitEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	for i := 0; i < 50; i++ {
		c := geom.Point{r.Float64(), r.Float64()}
		q := geom.BoxFromCenter(c, []float64{0.5, 0.5})
		if err := inc.Observe(q, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if inc.NumBuckets() > 30 {
		t.Fatalf("bucket cap exceeded: %d", inc.NumBuckets())
	}
}

// TestIncrementalRefusesNonFiniteSelectivity: a NaN or infinite
// observation is refused and leaves no trace. Before the check, one NaN
// split every node its query touched until the bucket cap stopped it,
// and the refits that followed returned no error.
func TestIncrementalRefusesNonFiniteSelectivity(t *testing.T) {
	ds := dataset.Power(3000, 4).Project([]int{0, 1})
	g := workload.NewGenerator(ds, 17)
	train := g.Generate(workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}, 40)
	opts := IncrementalOptions{Tau: 0.01, MaxBuckets: 300, RefitEvery: 4}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		inc, err := NewIncremental(2, opts)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := NewIncremental(2, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, z := range train {
			if i == 17 {
				err := inc.Observe(z.R, bad)
				if !errors.Is(err, core.ErrNonFiniteSelectivity) {
					t.Fatalf("selectivity %v: err %v", bad, err)
				}
				if inc.Observed() != twin.Observed() || inc.NumBuckets() != twin.NumBuckets() {
					t.Fatalf("selectivity %v: observed %d with %d buckets, twin %d with %d",
						bad, inc.Observed(), inc.NumBuckets(), twin.Observed(), twin.NumBuckets())
				}
			}
			if err := inc.Observe(z.R, z.Sel); err != nil {
				t.Fatal(err)
			}
			if err := twin.Observe(z.R, z.Sel); err != nil {
				t.Fatal(err)
			}
		}
		got, want := inc.Snapshot(), twin.Snapshot()
		if inc.NumBuckets() != twin.NumBuckets() || len(got.Weights) != len(want.Weights) {
			t.Fatalf("selectivity %v: %d buckets, twin %d", bad, inc.NumBuckets(), twin.NumBuckets())
		}
		for j := range got.Weights {
			if math.Float64bits(got.Weights[j]) != math.Float64bits(want.Weights[j]) {
				t.Fatalf("selectivity %v: weight %d = %v, twin %v", bad, j, got.Weights[j], want.Weights[j])
			}
		}
	}
}
