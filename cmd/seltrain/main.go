// Command seltrain trains a named selectivity model on a labeled workload
// CSV (as produced by selgen -workload …) and reports its accuracy.
//
// Usage:
//
//	selgen -dataset power -workload data-driven -queries 1000 > wl.csv
//	seltrain -model quadhist -class range -train 0.7 -out m.json < wl.csv
//
// The file is split into a training prefix and a test suffix according to
// -train; metrics are computed on the held-out suffix. With -out the
// trained model is written as a modelio envelope, ready for selserve:
//
//	selserve -model m.json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/hist"
	"repro/internal/isomer"
	"repro/internal/metrics"
	"repro/internal/modelio"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/ptshist"
	"repro/internal/quicksel"
	"repro/internal/workload"
)

func main() {
	var (
		model     = flag.String("model", "quadhist", "model: quadhist, ptshist, quicksel, isomer")
		class     = flag.String("class", "range", "query class of the CSV: range, halfspace, ball")
		trainFrac = flag.Float64("train", 0.7, "fraction of rows used for training")
		buckets   = flag.Int("buckets", 0, "model complexity (0 = 4x training size)")
		seed      = flag.Uint64("seed", 1, "model seed")
		minSel    = flag.Float64("minsel", 1e-5, "Q-error floor")
		outPath   = flag.String("out", "", "write the trained model to this file (modelio envelope)")
		loadPath  = flag.String("load", "", "skip training: load a model and evaluate it on every CSV row")
		workers   = flag.Int("workers", 0, "worker-pool size for the training kernels (0 = all CPUs); results are identical for any value")
		tracePath = flag.String("trace", "", "write a Chrome trace-event JSON profile of the run to this file (chrome://tracing)")
	)
	flag.Parse()
	if *workers < 0 {
		usage(fmt.Errorf("-workers must be non-negative, got %d", *workers))
	}
	if *workers != 0 {
		parallel.SetDefault(*workers)
	}

	// Flag validation: a bad invocation gets a usage message and a
	// non-zero exit before any input is read.
	if flag.NArg() > 0 {
		usage(fmt.Errorf("unexpected arguments: %v (input is read from stdin)", flag.Args()))
	}
	if *trainFrac <= 0 || *trainFrac >= 1 {
		usage(fmt.Errorf("-train must be in (0,1), got %v", *trainFrac))
	}
	if *buckets < 0 {
		usage(fmt.Errorf("-buckets must be non-negative, got %d", *buckets))
	}
	if *minSel <= 0 {
		usage(fmt.Errorf("-minsel must be positive, got %v", *minSel))
	}
	if *loadPath != "" && *outPath != "" {
		usage(fmt.Errorf("-load and -out are mutually exclusive"))
	}

	qclass, err := workload.ParseClass(*class)
	if err != nil {
		usage(err)
	}

	// With -trace, the whole run (workload read, every training stage,
	// evaluation) is recorded as one span tree and written as Chrome
	// trace-event JSON on exit. Without it, root is the zero Span and
	// every span call below is inert.
	var tracer *obs.Tracer
	var root obs.Span
	if *tracePath != "" {
		tracer = obs.NewTracer(obs.DefaultTraceCapacity)
		tracer.SetSampling(1)
		root = tracer.StartRoot("seltrain")
	}
	finishTrace := func() {
		if tracer == nil {
			return
		}
		root.End()
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		if err := tracer.WriteChromeTrace(f); err != nil {
			_ = f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	readSpan := root.Child("read_workload")
	samples, dim, err := workload.ReadCSV(os.Stdin, qclass)
	if err != nil {
		fatal(err)
	}
	readSpan.Items = int64(len(samples))
	readSpan.End()

	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			fatal(err)
		}
		m, err := modelio.Load(f)
		if cerr := f.Close(); err == nil && cerr != nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		report("(loaded "+*loadPath+")", dim, 0, len(samples), m, samples, *minSel, nil, root)
		finishTrace()
		return
	}
	if len(samples) < 4 {
		fatal(fmt.Errorf("need at least 4 queries, got %d", len(samples)))
	}
	nTrain := int(*trainFrac * float64(len(samples)))
	if nTrain < 1 {
		nTrain = 1
	}
	if nTrain >= len(samples) {
		nTrain = len(samples) - 1
	}
	train, test := samples[:nTrain], samples[nTrain:]
	k := *buckets
	if k == 0 {
		k = 4 * len(train)
	}

	// The TrainLog feeds two outputs from the same instrumentation: the
	// "train" stage line of the report (always) and the stage spans of
	// the -trace profile (when tracing).
	tlog := obs.NewTrainLog(root)
	var tr core.Trainer
	switch *model {
	case "quadhist":
		h := hist.New(dim, k)
		h.Log = tlog
		tr = h
	case "ptshist":
		p := ptshist.New(dim, k, *seed)
		p.Log = tlog
		tr = p
	case "quicksel":
		q := quicksel.New(dim, *seed)
		q.Log = tlog
		tr = q
	case "isomer":
		is := isomer.New(dim)
		is.Log = tlog
		tr = is
	default:
		usage(fmt.Errorf("unknown model %q", *model))
	}

	m, err := tr.Train(train)
	if err != nil {
		fatal(err)
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		if err := modelio.Save(f, m); err != nil {
			// Best-effort close; the save failure is the one to report.
			_ = f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	report(tr.Name(), dim, len(train), len(test), m, test, *minSel, tlog.Stats(), root)
	finishTrace()
}

// report prints the evaluation block for a model on a test set.
func report(name string, dim, nTrain, nTest int, m core.Model, test []core.LabeledQuery, minSel float64, stats *obs.TrainStats, parent obs.Span) {
	ev := parent.Child("evaluate")
	est := core.Estimates(m, test)
	ev.Items = int64(nTest)
	ev.End()
	truth := workload.Truths(test)
	q := metrics.SummarizeQErrors(est, truth, minSel)
	fmt.Printf("model      %s\n", name)
	fmt.Printf("dim        %d\n", dim)
	fmt.Printf("train/test %d/%d\n", nTrain, nTest)
	fmt.Printf("buckets    %d\n", m.NumBuckets())
	if stats != nil {
		fmt.Printf("train      %s\n", stats.Summary())
	}
	fmt.Printf("rms        %.5f\n", metrics.RMS(est, truth))
	fmt.Printf("linf       %.5f\n", metrics.LInf(est, truth))
	fmt.Printf("qerror     p50=%.3f p95=%.3f p99=%.3f max=%.3f\n", q.P50, q.P95, q.P99, q.Max)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "seltrain:", err)
	os.Exit(1)
}

// usage reports a bad invocation with the flag summary and exits 2, the
// conventional usage-error status.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "seltrain:", err)
	flag.Usage()
	os.Exit(2)
}
