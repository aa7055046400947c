package experiments

import (
	"strconv"
	"time"

	"repro/internal/bvh"
	"repro/internal/core"
	"repro/internal/hist"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/workload"
)

func init() {
	Register("ext_noise", extNoise)
	Register("ext_predtime", extPredTime)
}

// extNoise probes the agnostic side of the learning framework (the Remark
// after Theorem 2.1): training labels are corrupted with uniform noise of
// growing amplitude; agnostic learnability predicts graceful degradation
// toward the best achievable loss rather than collapse.
func extNoise(cfg Config) []*Result {
	g := newGenerator(cfg, "power", 2, workload.OrthogonalRange)
	spec := workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}
	n := cfg.TrainSizes[len(cfg.TrainSizes)-1]
	train, test := g.TrainTest(spec, n, cfg.TestQueries)
	truth := workload.Truths(test)

	res := &Result{
		ID:     "ext_noise",
		Title:  "extension: label-noise robustness (agnostic learning), QuadHist, Power 2D, n=" + strconv.Itoa(n),
		Header: []string{"noise_amp", "train_rms_vs_clean_labels", "test_rms"},
	}
	r := rng.New(cfg.Seed + 999)
	for _, amp := range []float64{0, 0.02, 0.05, 0.1, 0.2} {
		noisy := make([]core.LabeledQuery, len(train))
		for i, z := range train {
			s := z.Sel + amp*(2*r.Float64()-1)
			noisy[i] = core.LabeledQuery{R: z.R, Sel: core.Clamp01(s)}
		}
		m, err := hist.New(2, cfg.BucketMultiplier*n).TrainHist(noisy)
		if err != nil {
			res.Rows = append(res.Rows, []string{fmtF(amp), dash, dash})
			continue
		}
		res.Rows = append(res.Rows, []string{
			fmtF(amp),
			fmtF(core.RMS(m, train)), // against the clean labels
			fmtF(metrics.RMS(core.Estimates(m, test), truth)),
		})
	}
	res.Notes = append(res.Notes,
		"expected shape: test error grows smoothly with the noise amplitude and stays well below it (squared loss averages zero-mean noise out) — no collapse, as agnostic learnability predicts")
	return []*Result{res}
}

// extPredTime measures prediction latency versus model complexity — the
// paper notes prediction time "is dictated by model complexity" (§4.1) —
// and the speedup of indexed evaluation over the flat scan for partition
// histograms: a 2-D box query on the index is answered from its
// prefix-mass table.
func extPredTime(cfg Config) []*Result {
	g := newGenerator(cfg, "power", 2, workload.OrthogonalRange)
	spec := workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}
	n := cfg.TrainSizes[len(cfg.TrainSizes)-1]
	train := g.Generate(spec, n)
	test := g.Generate(spec, cfg.TestQueries)

	res := &Result{
		ID:     "ext_predtime",
		Title:  "extension: prediction time vs model complexity (QuadHist, flat vs indexed)",
		Header: []string{"buckets", "flat_us_per_query", "indexed_us_per_query", "speedup"},
	}
	for _, b := range cfg.Fig9Buckets {
		if b < 16 { // too few buckets to time meaningfully
			continue
		}
		m, err := hist.New(2, b).TrainHist(train)
		if err != nil {
			continue
		}
		// m.Estimate uses the model's own index at bvh.IndexThreshold
		// buckets and above, so the flat arm calls the flat kernel, and the
		// indexed arm builds its own tree to index the smaller models too.
		idx := bvh.Build(m.Buckets, m.Weights)
		flat := timePerQuery(func(r int) { bvh.EstimateFlat(m.Buckets, m.Weights, test[r].R) }, len(test))
		fast := timePerQuery(func(r int) { idx.Estimate(test[r].R) }, len(test))
		res.Rows = append(res.Rows, []string{
			strconv.Itoa(m.NumBuckets()),
			fmtF(flat), fmtF(fast), fmtF(flat / fast),
		})
	}
	res.Notes = append(res.Notes,
		"expected shape: flat latency grows linearly with buckets; indexed 2-D box latency is nearly flat in buckets (four lookups in the index's prefix-mass table, O(log m)), so the speedup widens with model size")
	return []*Result{res}
}

// timePerQuery returns microseconds per call, averaged over enough rounds
// to be stable. This is a latency microbenchmark: the clock reads are the
// measurement itself, which is why the determinism suppressions below are
// sound — no model output depends on them.
func timePerQuery(fn func(r int), nQueries int) float64 {
	rounds := 1
	for {
		start := time.Now() //selvet:ignore detrand query latency is the measured quantity of this figure
		for k := 0; k < rounds; k++ {
			for q := 0; q < nQueries; q++ {
				fn(q)
			}
		}
		elapsed := time.Since(start) //selvet:ignore detrand query latency is the measured quantity of this figure
		if elapsed > 50*time.Millisecond {
			return float64(elapsed.Microseconds()) / float64(rounds*nQueries)
		}
		rounds *= 4
	}
}
