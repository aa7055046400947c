package main

import (
	"fmt"
	"time"
)

// class is one kind of operation the serving phase sends.
type class int

const (
	clsSingle   class = iota // JSON /v1/estimate, one query
	clsBatch                 // JSON /v1/estimate, batchQueries queries
	clsStream                // NDJSON /v1/estimate/stream, streamQueries queries
	clsBin                   // binary frame, one query
	clsFeedback              // JSON /v1/feedback, feedbackObs observations
	clsSwap                  // PUT /v1/models/default, binary snapshot
	nClasses
)

var classNames = [nClasses]string{"single", "batch", "stream", "bin", "feedback", "swap"}

func (c class) String() string { return classNames[c] }

// isRead reports whether the class asks for estimates.
func (c class) isRead() bool { return c <= clsBin }

const (
	batchQueries  = 16
	streamQueries = 64
	feedbackObs   = 8
	// closedPool is how many closed-loop read requests are rendered; the
	// closed loop cycles through them. It holds far more distinct queries
	// than the server's 4096-entry cache, so a wrap-around never turns a
	// distinct-query stream into cache hits.
	closedPool = 6000
	// lateBoundUS is the generator-lateness p99 above which a run is
	// invalid. On a shared two-CPU VM the host alone delays a punctual
	// generator by up to ~10 ms at p99 in busy periods; a generator that
	// stalls beyond that measured itself, not the server.
	lateBoundUS = 25000
	// queryMaxSide bounds serving-query sides; the paper's workloads draw
	// sides from [0,1].
	queryMaxSide = 1.0
)

// servingCfg is the serving half of a workload.
type servingCfg struct {
	// buckets is the size of the serving model built in setup; 0 serves
	// the model the workload's training phase produced.
	buckets int
	// pool > 0 draws every estimate query with Zipf skew (exponent zipfS)
	// from a fixed pool of that many predicates; 0 makes every query new.
	pool  int
	zipfS float64
	// rates is the open-loop offered rate per class, requests per second;
	// swaps are periodic at rates[clsSwap] per second, the rest Poisson.
	rates [nClasses]float64
	// online folds feedback into the serving weights (-online) in
	// batches of onlineBatch observations; off, feedback only fills the
	// retrain ring, which -min-retrain keeps from ever retraining.
	online      bool
	onlineBatch int
	// openShare and closedShare are the phase lengths as shares of
	// --seconds, split evenly among passes serving passes, each on a
	// fresh server.
	openShare, closedShare float64
	passes                 int
}

// trainCfg is the training half of a workload: QUADHIST on Power-2D and
// PTSHIST on Forest-5D, both on data-driven range workloads.
type trainCfg struct {
	histQueries, histBuckets int
	ptsQueries, ptsPoints    int
	testQueries              int
	inputSets                int     // independent input sets; accuracy is their median
	setupReps                int     // builds of the first set (median set-up reported)
	share                    float64 // the training chunks take about this share of --seconds
}

// workloadCfg is one benchmark workload. Every workload runs the paper's
// whole workflow — train offline, then serve — so every metric exists on
// every workload; the workloads differ in which layers do most of the
// work.
type workloadCfg struct {
	name  string
	serve servingCfg
	train trainCfg
}

// smallTrain is the training half of the serving workloads: the same
// pipeline at a size that leaves the run's time to serving.
var smallTrain = trainCfg{
	histQueries: 400, histBuckets: 400,
	ptsQueries: 300, ptsPoints: 800,
	testQueries: 1000,
	inputSets:   16, setupReps: 1, share: 0.15,
}

var workloads = []workloadCfg{
	{
		// Read-only for the model: no query repeats, so the kernel and
		// the codecs do the work and the cache only misses. Feedback
		// lands in the retrain ring without changing the model, which
		// keeps every estimate checkable bit for bit.
		name: "distinct_read",
		serve: servingCfg{
			buckets:   16384,
			rates:     [nClasses]float64{clsSingle: 150, clsBatch: 120, clsStream: 110, clsBin: 150, clsFeedback: 110},
			openShare: 0.5, closedShare: 0.2, passes: 7,
		},
		train: smallTrain,
	},
	{
		// Reads drawn with Zipf skew from a few hundred predicates beside
		// online feedback folds and periodic same-size hot-swaps: cache
		// hits, folds, copy-on-write publishes and snapshot loads do the
		// work.
		name: "repeat_rw",
		serve: servingCfg{
			buckets: 4096,
			pool:    400, zipfS: 1.1,
			rates: [nClasses]float64{clsSingle: 150, clsBatch: 120, clsStream: 110, clsBin: 150, clsFeedback: 110, clsSwap: 1},
			// 880 feedback observations a second fold into about three
			// publishes a second, so a model generation lives long enough
			// for repeated queries to hit the cache.
			online: true, onlineBatch: 320,
			openShare: 0.5, closedShare: 0.2, passes: 7,
		},
		train: smallTrain,
	},
	{
		// Offline training at the paper's sizes dominates; the freshly
		// trained QUADHIST model is then served briefly.
		name: "train",
		serve: servingCfg{
			rates:     [nClasses]float64{clsSingle: 220, clsBatch: 220, clsStream: 220, clsBin: 220, clsFeedback: 220},
			openShare: 0.25, closedShare: 0.1, passes: 5,
		},
		train: trainCfg{
			histQueries: 2000, histBuckets: 2000,
			ptsQueries: 1400, ptsPoints: 4000,
			testQueries: 4000,
			inputSets:   2, setupReps: 3, share: 0.5,
		},
	},
}

func workloadByName(name string) (workloadCfg, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadCfg{}, fmt.Errorf("unknown workload %q", name)
}

// phaseLen converts a share of the run length to a duration.
func phaseLen(seconds int, share float64) time.Duration {
	return time.Duration(share * float64(seconds) * float64(time.Second))
}
