package selest

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper (regenerating the experiment at the Quick preset and reporting
// headline metrics), plus ablation benchmarks for the design choices called
// out in DESIGN.md §5.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem ./...
//
// Full-size runs of individual experiments are available through
// cmd/selbench (-preset full).

import (
	"io"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/hist"
	"repro/internal/kdtree"
	"repro/internal/linalg"
	"repro/internal/ptshist"
	"repro/internal/quadtree"
	"repro/internal/quicksel"
	"repro/internal/solver"
	"repro/internal/workload"
)

// benchExperiment runs a registered experiment once per iteration and
// reports its total row count (a proxy for completed sweep points).
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		results, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		rows := 0
		for _, r := range results {
			r.Render(io.Discard)
			rows += len(r.Rows)
		}
		b.ReportMetric(float64(rows), "rows")
	}
}

func BenchmarkFig09(b *testing.B)     { benchExperiment(b, "fig9") }
func BenchmarkFig10to12(b *testing.B) { benchExperiment(b, "fig10_12") }
func BenchmarkFig13(b *testing.B)     { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)     { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)     { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)     { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)     { benchExperiment(b, "fig17") }
func BenchmarkFig18to19(b *testing.B) { benchExperiment(b, "fig18_19") }
func BenchmarkFig20to21(b *testing.B) { benchExperiment(b, "fig20_21") }
func BenchmarkFig22to23(b *testing.B) { benchExperiment(b, "fig22_23") }
func BenchmarkFig24to29(b *testing.B) { benchExperiment(b, "fig24_29") }
func BenchmarkTable1(b *testing.B)    { benchExperiment(b, "table1") }
func BenchmarkTable3(b *testing.B)    { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)    { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B)    { benchExperiment(b, "table5") }

// Appendix B panels.
func BenchmarkFigAppendixForest(b *testing.B) { benchExperiment(b, "figB_forest_dd") }

// --- fixtures for the ablation benchmarks -----------------------------------

func benchWorkload(b *testing.B, n int) ([]core.LabeledQuery, []core.LabeledQuery, *workload.Generator) {
	b.Helper()
	ds := dataset.Power(8000, 1).Project([]int{0, 1})
	g := workload.NewGenerator(ds, 42)
	spec := workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}
	train, test := g.TrainTest(spec, n, 200)
	return train, test, g
}

// Ablation: weight-estimation solver, NNLS vs projected gradient
// (DESIGN.md §5). Reports held-out RMS so the accuracy cost of the faster
// solver is visible next to its speed.
func benchSolver(b *testing.B, method solver.Method) {
	train, test, _ := benchWorkload(b, 150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := &hist.Trainer{Dim: 2, Opts: hist.Options{MaxBuckets: 300, Solver: method}}
		m, err := tr.TrainHist(train)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(core.RMS(m, test), "rms")
	}
}

func BenchmarkAblationSolverNNLS(b *testing.B) { benchSolver(b, solver.MethodNNLS) }
func BenchmarkAblationSolverPGD(b *testing.B)  { benchSolver(b, solver.MethodPGD) }

// Ablation: QUADHIST's selectivity-guided split rule (Algorithm 2) vs a
// geometry-only rule that splits wherever queries overlap, ignoring
// selectivities. The paper argues the guided rule avoids wasting buckets
// on sparse regions.
func benchSplitRule(b *testing.B, guided bool) {
	train, test, _ := benchWorkload(b, 150)
	qsamples := make([]quadtree.Sample, len(train))
	for i, z := range train {
		s := z.Sel
		if !guided {
			s = 1 // geometry-only: every overlap splits
		}
		qsamples[i] = quadtree.Sample{R: z.R, S: s}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := quadtree.BuildFromQueries(2, qsamples, 0.02, quadtree.WithMaxLeaves(600))
		buckets := tree.Leaves()
		a := core.DesignMatrixBoxes(train, buckets)
		w, err := solver.Weights(a, core.Selectivities(train))
		if err != nil {
			b.Fatal(err)
		}
		m := &hist.Model{Buckets: buckets, Weights: w}
		b.ReportMetric(core.RMS(m, test), "rms")
		b.ReportMetric(float64(len(buckets)), "buckets")
	}
}

func BenchmarkAblationSplitRuleGuided(b *testing.B)       { benchSplitRule(b, true) }
func BenchmarkAblationSplitRuleGeometryOnly(b *testing.B) { benchSplitRule(b, false) }

// Ablation: PTSHIST's 0.9/0.1 interior/uniform bucket mix vs all-interior
// and all-uniform (DESIGN.md §5).
func benchPtsMix(b *testing.B, frac float64) {
	train, test, _ := benchWorkload(b, 150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := &ptshist.Trainer{Dim: 2, Opts: ptshist.Options{K: 600, Seed: 7, InteriorFraction: frac}}
		m, err := tr.TrainHist(train)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(core.RMS(m, test), "rms")
	}
}

func BenchmarkAblationPtsMixPaper(b *testing.B)       { benchPtsMix(b, 0.9) }
func BenchmarkAblationPtsMixAllInterior(b *testing.B) { benchPtsMix(b, 0.999) }
func BenchmarkAblationPtsMixAllUniform(b *testing.B)  { benchPtsMix(b, 0.001) }

// Ablation: kd-tree vs brute-force workload labeling.
func BenchmarkAblationLabelingKDTree(b *testing.B) {
	ds := dataset.Power(20000, 1).Project([]int{0, 1})
	g := workload.NewGenerator(ds, 42)
	spec := workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Generate(spec, 100)
	}
}

func BenchmarkAblationLabelingBruteForce(b *testing.B) {
	ds := dataset.Power(20000, 1).Project([]int{0, 1})
	g := workload.NewGenerator(ds, 42)
	spec := workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}
	queries := g.Generate(spec, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, z := range queries {
			kdtree.BruteCount(ds.Points, z.R)
		}
	}
}

// Micro-benchmarks of the hot paths underneath every experiment.
func BenchmarkDesignMatrix2D(b *testing.B) {
	train, _, _ := benchWorkload(b, 200)
	tr := hist.New(2, 800)
	m, err := tr.TrainHist(train[:50])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.DesignMatrixBoxes(train, m.Buckets)
	}
}

func BenchmarkEstimate(b *testing.B) {
	train, test, _ := benchWorkload(b, 200)
	m, err := hist.New(2, 800).TrainHist(train)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Estimate(test[i%len(test)].R)
	}
}

func BenchmarkNNLSMedium(b *testing.B) {
	train, _, _ := benchWorkload(b, 120)
	m, err := hist.New(2, 240).TrainHist(train[:40])
	if err != nil {
		b.Fatal(err)
	}
	a := core.DesignMatrixBoxes(train, m.Buckets)
	s := core.Selectivities(train)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.SimplexWeights(a, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPGDLarge(b *testing.B) {
	train, _, _ := benchWorkload(b, 300)
	m, err := hist.New(2, 1200).TrainHist(train[:80])
	if err != nil {
		b.Fatal(err)
	}
	a := core.DesignMatrixBoxes(train, m.Buckets)
	s := core.Selectivities(train)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver.SimplexPGD(a, s, 300)
	}
}

func BenchmarkMatVec(b *testing.B) {
	const m, n = 500, 2000
	a := linalg.NewMatrix(m, n)
	for i := range a.Data {
		a.Data[i] = float64(i%97) / 97
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%31) / 31
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(x)
	}
}

// trainSizeWorkload is the QUADHIST half of _e2ebench's train workload:
// 2,000 data-driven ranges on Power-2D, labeled, with their quadtree
// samples.
func trainSizeWorkload(b *testing.B) ([]core.LabeledQuery, []quadtree.Sample) {
	b.Helper()
	ds := dataset.Power(dataset.DefaultPowerSize, 1).Project([]int{0, 1})
	spec := workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}
	train := workload.NewGenerator(ds, 4401001).Generate(spec, 2000)
	cube := geom.UnitCube(2)
	qs := make([]quadtree.Sample, len(train))
	for i, z := range train {
		qs[i] = quadtree.Sample{R: z.R, S: z.Sel, RVol: z.R.IntersectBoxVolume(cube)}
	}
	return train, qs
}

// BenchmarkSearchTau times Algorithm 2's threshold search for a cap of
// 2,000 buckets at the train workload's size: the tau_search stage.
func BenchmarkSearchTau(b *testing.B) {
	_, qs := trainSizeWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hist.SearchTau(2, qs, 2000)
	}
}

// BenchmarkSparseMatVec times FISTA's two products on the train
// workload's QUADHIST design matrix (2,000 queries by about 2,000
// buckets, 42% dense, 92% of its nonzeros exactly 1), with the dense
// vectors of FISTA's first step: uniform weights, then the residual.
func BenchmarkSparseMatVec(b *testing.B) {
	train, qs := trainSizeWorkload(b)
	tree := quadtree.BuildFromQueries(2, qs, hist.SearchTau(2, qs, 2000), quadtree.WithMaxLeaves(2000))
	a := core.DesignMatrixBoxes(train, tree.Leaves())
	sp := linalg.NewSparse(a)
	w := make([]float64, a.Cols)
	for j := range w {
		w[j] = 1 / float64(a.Cols)
	}
	res := sp.MulVec(w)
	for i, z := range train {
		res[i] -= z.Sel
	}
	b.Run("mul", func(b *testing.B) {
		y := make([]float64, a.Rows)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sp.MulVecInto(y, w)
		}
	})
	b.Run("tmul", func(b *testing.B) {
		g := make([]float64, a.Cols)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sp.TMulVecInto(g, res)
		}
	})
}

// Theorem 2.1 calculator sanity at benchmark time: cheap, but keeps the
// theory path exercised by the bench suite too.
func BenchmarkSampleComplexity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := 2 + i%6
		_ = SampleComplexityOrthogonal(0.1, 0.05, d)
		_ = strconv.Itoa(d)
	}
}

// Ablation: parallel vs sequential design-matrix assembly (DESIGN.md §5).
func benchDesignWorkers(b *testing.B, workers int) {
	train, _, _ := benchWorkload(b, 400)
	m, err := hist.New(2, 1600).TrainHist(train[:100])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.DesignMatrixBoxesWith(train, m.Buckets, workers)
	}
}

func BenchmarkAblationDesignSequential(b *testing.B) { benchDesignWorkers(b, 1) }
func BenchmarkAblationDesignParallel(b *testing.B)   { benchDesignWorkers(b, runtime.GOMAXPROCS(0)) }

// Extension experiments as benches too.
func BenchmarkExtDisc(b *testing.B) { benchExperiment(b, "ext_disc") }
func BenchmarkExtGMM(b *testing.B)  { benchExperiment(b, "ext_gmm") }

func BenchmarkExtSemiAlg(b *testing.B)   { benchExperiment(b, "ext_semialg") }
func BenchmarkExtOptimizer(b *testing.B) { benchExperiment(b, "ext_optimizer") }

func BenchmarkExtNoise(b *testing.B)    { benchExperiment(b, "ext_noise") }
func BenchmarkExtPredTime(b *testing.B) { benchExperiment(b, "ext_predtime") }

func BenchmarkExtCrossing(b *testing.B) { benchExperiment(b, "ext_crossing") }
func BenchmarkExtTheory(b *testing.B)   { benchExperiment(b, "ext_theory") }
func BenchmarkExtOnline(b *testing.B)   { benchExperiment(b, "ext_online") }

func BenchmarkFigAppendixDMV(b *testing.B)    { benchExperiment(b, "figB_dmv") }
func BenchmarkFigAppendixCensus(b *testing.B) { benchExperiment(b, "figB_census") }

// Ablation: QuickSel weight program — regularized simplex (default, valid
// distribution) vs the original exact KKT QP (possibly-negative weights).
func benchQuickSelMode(b *testing.B, exact bool) {
	train, test, _ := benchWorkload(b, 150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := &quicksel.Trainer{Dim: 2, Opts: quicksel.Options{Seed: 3, ExactQP: exact}}
		m, err := tr.Train(train)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(core.RMS(m, test), "rms")
	}
}

func BenchmarkAblationQuickSelSimplex(b *testing.B) { benchQuickSelMode(b, false) }
func BenchmarkAblationQuickSelExactQP(b *testing.B) { benchQuickSelMode(b, true) }
