package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/hist"
	"repro/internal/kdtree"
	"repro/internal/load"
	"repro/internal/modelio"
	"repro/internal/quadtree"
	"repro/internal/rng"
	"repro/internal/wirebin"
)

// Datasets are fixed, like the real tables the paper samples from; the
// seed drives everything drawn from them (queries, schedules, feedback,
// swap weights, training workloads).
const datasetSeed = 1

func power2D() *dataset.Dataset {
	return dataset.Power(dataset.DefaultPowerSize, datasetSeed).Project([]int{0, 1})
}

func forest5D() *dataset.Dataset {
	return dataset.Forest(dataset.DefaultForestSize, datasetSeed).Project([]int{0, 1, 2, 3, 4})
}

// request is one pre-rendered operation.
type request struct {
	cls  class
	at   time.Duration // scheduled offset from the phase start (open loop)
	wire []byte        // exact bytes written to the connection
	nq   int           // estimate queries carried (0 for writes)
	// want holds the in-process estimates of the served snapshot, to be
	// matched bit for bit; nil when the model changes during the run.
	want   []float64
	ranges []geom.Range // the queries, for expected values and layer timings
}

// plan is everything a serving phase sends, rendered from the seed before
// any timing starts.
type plan struct {
	cfg      workloadCfg
	snapshot []byte     // serving model as a binary snapshot
	model    core.Model // the same snapshot loaded in-process
	buckets  int
	swaps    [][]byte   // same-size swap snapshots (repeat_rw)
	open     []*request // open-loop schedule, by due time
	closed   []*request // closed-loop reads, cycled
	closedW  []*request // writes scheduled during the closed-loop phase
	probe    *request   // the set-up probe: one single estimate
	probeSet []geom.Range
	openDur  time.Duration
	closeDur time.Duration
	exact    bool // the model never changes: check estimates bit for bit
}

// render builds the serving plan of a workload. trained is the snapshot
// the training phase produced; it is served when cfg.serve.buckets is 0.
func render(cfg workloadCfg, seed uint64, seconds int, trained []byte) (*plan, error) {
	sc := cfg.serve
	r := rng.New(seed*0x9e3779b97f4a7c15 + 0x5e7e)
	ds := power2D()
	tree := kdtree.Build(ds.Points)
	p := &plan{
		cfg:      cfg,
		openDur:  phaseLen(seconds, sc.openShare) / time.Duration(sc.passes),
		closeDur: phaseLen(seconds, sc.closedShare) / time.Duration(sc.passes),
		exact:    !sc.online && sc.rates[clsSwap] == 0,
	}

	snap := trained
	if sc.buckets > 0 {
		m := massModel(ds, tree, r, sc.buckets)
		var buf bytes.Buffer
		if err := modelio.SaveBinary(&buf, m); err != nil {
			return nil, err
		}
		snap = buf.Bytes()
		if sc.rates[clsSwap] > 0 {
			for i := 0; i < 8; i++ {
				var sb bytes.Buffer
				if err := modelio.SaveBinary(&sb, perturbed(m, r)); err != nil {
					return nil, err
				}
				p.swaps = append(p.swaps, sb.Bytes())
			}
		}
	}
	if snap == nil {
		return nil, fmt.Errorf("workload %s: no model to serve", cfg.name)
	}
	m, err := modelio.LoadAnyBytes(snap)
	if err != nil {
		return nil, err
	}
	core.Accelerate(m)
	p.snapshot, p.model, p.buckets = snap, m, m.NumBuckets()

	var pool []geom.Range
	var zf *zipf
	if sc.pool > 0 {
		pool = make([]geom.Range, sc.pool)
		for i := range pool {
			pool[i] = dataBox(r, ds.Points)
		}
		zf = newZipf(sc.pool, sc.zipfS)
	}
	nextQuery := func() geom.Range {
		if zf != nil {
			return pool[zf.rank(r.Float64())]
		}
		return dataBox(r, ds.Points)
	}
	queries := func(n int) []geom.Range {
		qs := make([]geom.Range, n)
		for i := range qs {
			qs[i] = nextQuery()
		}
		return qs
	}
	swapN := 0
	mk := func(c class, at time.Duration) (*request, error) {
		req := &request{cls: c, at: at}
		switch c {
		case clsSingle:
			req.ranges = queries(1)
			req.wire = httpRequest("POST", "/v1/estimate", load.SingleBody("", req.ranges[0]))
		case clsBatch:
			req.ranges = queries(batchQueries)
			req.wire = httpRequest("POST", "/v1/estimate", load.BatchBody("", req.ranges))
		case clsStream:
			req.ranges = queries(streamQueries)
			req.wire = httpRequest("POST", "/v1/estimate/stream", load.StreamBody(req.ranges))
		case clsBin:
			req.ranges = queries(1)
			frame, err := wirebin.AppendEstimateReq(nil, nil, req.ranges[0])
			if err != nil {
				return nil, err
			}
			req.wire = frame
		case clsFeedback:
			// Feedback carries fresh predicates labeled with their true
			// selectivity, as an executor would report them.
			qs := make([]geom.Range, feedbackObs)
			sels := make([]float64, feedbackObs)
			for i := range qs {
				qs[i] = dataBox(r, ds.Points)
				sels[i] = tree.Selectivity(qs[i])
			}
			req.wire = httpRequest("POST", "/v1/feedback", load.FeedbackBody("", qs, sels))
		case clsSwap:
			req.wire = httpRequest("PUT", "/v1/models/default", p.swaps[swapN%len(p.swaps)])
			swapN++
		}
		req.nq = len(req.ranges)
		return req, nil
	}

	// Open loop: Poisson arrivals per class, periodic swaps, merged.
	schedule := func(dur time.Duration, classes func(class) bool) ([]*request, error) {
		var out []*request
		for c := class(0); c < nClasses; c++ {
			rate := sc.rates[c]
			if rate <= 0 || !classes(c) {
				continue
			}
			t := 0.0
			for {
				if c == clsSwap {
					t += 1 / rate
				} else {
					t += r.ExpFloat64() / rate
				}
				at := time.Duration(t * float64(time.Second))
				if at >= dur {
					break
				}
				req, err := mk(c, at)
				if err != nil {
					return nil, err
				}
				out = append(out, req)
			}
		}
		sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
		return out, nil
	}
	if p.open, err = schedule(p.openDur, func(class) bool { return true }); err != nil {
		return nil, err
	}
	if p.closedW, err = schedule(p.closeDur, func(c class) bool { return !c.isRead() }); err != nil {
		return nil, err
	}

	// Closed loop: reads in the open loop's read proportions.
	readTotal := 0.0
	for c := clsSingle; c <= clsBin; c++ {
		readTotal += sc.rates[c]
	}
	for i := 0; i < closedPool; i++ {
		u := r.Float64() * readTotal
		c := clsSingle
		for ; c < clsBin && u >= sc.rates[c]; c++ {
			u -= sc.rates[c]
		}
		req, err := mk(c, 0)
		if err != nil {
			return nil, err
		}
		p.closed = append(p.closed, req)
	}

	p.probeSet = make([]geom.Range, 64)
	for i := range p.probeSet {
		p.probeSet[i] = dataBox(r, ds.Points)
	}
	if p.probe, err = mk(clsSingle, 0); err != nil {
		return nil, err
	}
	p.probe.want = make([]float64, 1)
	core.EstimateRangesInto(m, p.probe.ranges, 1, p.probe.want)
	if p.exact {
		fillWant(m, p.open)
		fillWant(m, p.closed)
	}
	return p, nil
}

// fillWant computes the expected estimates of every read in one batch on
// the shared kernel.
func fillWant(m core.Model, reqs []*request) {
	var all []geom.Range
	for _, req := range reqs {
		all = append(all, req.ranges...)
	}
	out := make([]float64, len(all))
	core.EstimateRangesInto(m, all, 0, out)
	for _, req := range reqs {
		if req.nq > 0 {
			req.want, out = out[:req.nq], out[req.nq:]
		}
	}
}

// dataBox draws a box query with a data-driven center (a dataset tuple,
// so centers are continuous and dense where the data is) and sides
// uniform in [0, queryMaxSide].
func dataBox(r *rng.RNG, pts []geom.Point) geom.Range {
	c := pts[r.IntN(len(pts))]
	sides := make([]float64, len(c))
	for i := range sides {
		sides[i] = queryMaxSide * r.Float64()
	}
	return geom.BoxFromCenter(c, sides)
}

// massModel builds a serving histogram the way a trained QUADHIST model
// looks: bucket geometry from QUADHIST's quadtree over a data-driven
// workload, so buckets are small where data (and queries) are dense, and
// each bucket weighted by its true data mass.
func massModel(ds *dataset.Dataset, tree *kdtree.Tree, r *rng.RNG, buckets int) *hist.Model {
	const nq = 2000
	samples := make([]quadtree.Sample, nq)
	for i := range samples {
		q := dataBox(r, ds.Points)
		samples[i] = quadtree.Sample{R: q, S: tree.Selectivity(q)}
	}
	dim := ds.Dim()
	leaves := func(tau float64) int {
		return quadtree.BuildFromQueries(dim, samples, tau, quadtree.WithMaxLeaves(buckets+(1<<dim))).NumLeaves()
	}
	// Geometric bisection on τ: the leaf count falls as τ grows. Within 2%
	// of the target is close enough.
	lo, hi := 1e-9, 1.0
	for i := 0; i < 24; i++ {
		mid := math.Sqrt(lo * hi)
		n := leaves(mid)
		if n > buckets {
			lo = mid
			continue
		}
		hi = mid
		if n*50 >= buckets*49 {
			break
		}
	}
	boxes := quadtree.BuildFromQueries(dim, samples, hi).Leaves()
	weights := make([]float64, len(boxes))
	total := 0.0
	for i, b := range boxes {
		weights[i] = float64(tree.Count(b))
		total += weights[i]
	}
	for i := range weights {
		weights[i] /= total
	}
	return &hist.Model{Buckets: boxes, Weights: weights}
}

// perturbed returns a model with m's buckets and multiplicatively
// perturbed, renormalized weights: a hot-swap candidate of the serving
// model's size, so kernel cost does not drift within a run.
func perturbed(m *hist.Model, r *rng.RNG) *hist.Model {
	w := make([]float64, len(m.Weights))
	total := 0.0
	for i, v := range m.Weights {
		w[i] = v * (1 + 0.5*r.Float64())
		total += w[i]
	}
	for i := range w {
		w[i] /= total
	}
	return &hist.Model{Buckets: m.Buckets, Weights: w}
}

// httpRequest renders a complete HTTP/1.1 request.
func httpRequest(method, path string, body []byte) []byte {
	ctype := "application/json"
	if method == "PUT" {
		ctype = "application/octet-stream"
	}
	head := fmt.Sprintf("%s %s HTTP/1.1\r\nHost: selserve\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
		method, path, ctype, len(body))
	return append([]byte(head), body...)
}

// digest hashes the rendered request stream: schedule, classes and wire
// bytes of every phase, plus the served snapshot.
func (p *plan) digest() [32]byte {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	h.Write(p.snapshot)
	for _, reqs := range [][]*request{p.open, p.closed, p.closedW, {p.probe}} {
		for _, req := range reqs {
			put(uint64(req.cls))
			put(uint64(req.at))
			put(uint64(len(req.wire)))
			h.Write(req.wire)
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// estimateQueries lists the open-loop estimate queries in send order.
func (p *plan) estimateQueries() []geom.Range {
	var qs []geom.Range
	for _, req := range p.open {
		qs = append(qs, req.ranges...)
	}
	return qs
}
