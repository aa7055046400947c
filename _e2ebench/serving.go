package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/modelio"
	"repro/internal/obs"
)

// laneLog is what one lane records during a phase.
type laneLog struct {
	lat       [nClasses][]float64 // µs from the scheduled start (open loop)
	sent      [nClasses]int64     // requests answered correctly, per class
	queries   int64               // estimate queries answered (closed loop)
	attempted int64
	failed    int64
	errs      []string
}

// phaseResult merges the lanes' logs.
type phaseResult struct {
	laneLog
	late []float64 // generator lateness per release, µs
	secs float64
}

// send runs one request on a lane and records the outcome. A failed
// request counts as failed and its connection is replaced.
func (lg *laneLog) send(l *lane, req *request) bool {
	lg.attempted++
	err := errNoConn
	if l.hc != nil || l.redial() == nil {
		err = l.do(req)
	}
	if err == nil {
		lg.sent[req.cls]++
		return true
	}
	lg.failed++
	if len(lg.errs) < 5 {
		lg.errs = append(lg.errs, err.Error())
	}
	_ = l.redial()
	return false
}

var errNoConn = fmt.Errorf("connection unavailable")

func merge(logs []laneLog, late []float64, secs float64) *phaseResult {
	pr := &phaseResult{late: late, secs: secs}
	for i := range logs {
		lg := &logs[i]
		for c := range lg.lat {
			pr.lat[c] = append(pr.lat[c], lg.lat[c]...)
			pr.sent[c] += lg.sent[c]
		}
		pr.queries += lg.queries
		pr.attempted += lg.attempted
		pr.failed += lg.failed
		pr.errs = append(pr.errs, lg.errs...)
	}
	return pr
}

// runOpen releases the schedule open-loop: each request is due at its
// offset whether or not earlier ones have finished, and its latency runs
// from that due time, so a stall also charges the requests queued behind
// it.
func runOpen(lanes []*lane, reqs []*request) *phaseResult {
	start := time.Now().Add(2 * time.Millisecond)
	// Sized to the whole schedule, so the pacer never blocks on a busy
	// lane and its lateness measures only itself.
	ch := make(chan *request, len(reqs))
	logs := make([]laneLog, len(lanes))
	var wg sync.WaitGroup
	for i, l := range lanes {
		wg.Add(1)
		go func(lg *laneLog, l *lane) {
			defer wg.Done()
			for req := range ch {
				if lg.send(l, req) {
					lg.lat[req.cls] = append(lg.lat[req.cls], float64(time.Since(start)-req.at)/1e3)
				}
			}
		}(&logs[i], l)
	}
	p := newPacer(start, len(reqs))
	for _, req := range reqs {
		p.wait(req.at)
		ch <- req
	}
	close(ch)
	wg.Wait()
	return merge(logs, p.late, time.Since(start).Seconds())
}

// runClosed keeps every lane busy with reads for dur, with no think time;
// the workload's writes keep arriving on their open-loop schedule and a
// lane takes a due write before its next read.
func runClosed(lanes []*lane, reads, writes []*request, dur time.Duration) *phaseResult {
	start := time.Now()
	deadline := start.Add(dur)
	wch := make(chan *request, len(writes)+1)
	p := newPacer(start, len(writes))
	pacerDone := make(chan struct{})
	go func() {
		defer close(pacerDone)
		for _, w := range writes {
			p.wait(w.at)
			wch <- w
		}
		close(wch)
	}()
	var next atomic.Int64
	logs := make([]laneLog, len(lanes))
	var wg sync.WaitGroup
	for i, l := range lanes {
		wg.Add(1)
		go func(lg *laneLog, l *lane) {
			defer wg.Done()
			wc := wch
			for time.Now().Before(deadline) {
				select {
				case w, ok := <-wc:
					if !ok {
						wc = nil
						continue
					}
					lg.send(l, w)
				default:
					req := reads[int(next.Add(1)-1)%len(reads)]
					if lg.send(l, req) {
						lg.queries += int64(req.nq)
					}
				}
			}
		}(&logs[i], l)
	}
	wg.Wait()
	secs := time.Since(start).Seconds()
	<-pacerDone
	return merge(logs, p.late, secs)
}

// servingResult is one serving pass.
type servingResult struct {
	setup        []float64 // seconds from launch to first correct estimate
	open, closed *phaseResult
	cpuSecs      float64 // selserve CPU during the closed loop
	rssMB        float64
	s0, s1, s2   *obs.Scrape // before the open loop, between phases, after the closed loop
	trace        *traceResult
	revision     string
	probeErr     string // the post-run probe's failure, if any
}

// runServing launches selserve setupReps times (keeping the last), runs
// the open and closed loops, then checks the served model against a probe
// set with writes stopped.
func runServing(p *plan, opt options, traced bool, setupReps int) (*servingResult, error) {
	modelPath := filepath.Join(opt.workdir, "serve.snap")
	if err := os.WriteFile(modelPath, p.snapshot, 0o644); err != nil {
		return nil, err
	}
	var extra []string
	if p.cfg.serve.online {
		extra = append(extra, "-online", "-online-batch", strconv.Itoa(p.cfg.serve.onlineBatch))
	}
	if traced {
		extra = append(extra, "-trace-sample", "1")
	}
	res := &servingResult{}
	var srv *server
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		s, err := startServer(opt.selserve, opt.workdir, modelPath, extra...)
		if err != nil {
			return nil, err
		}
		d, err := s.waitReady(p.probe, t0)
		if err != nil {
			s.stop()
			return nil, err
		}
		res.setup = append(res.setup, d.Seconds())
		if i < setupReps-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()

	lanes := make([]*lane, runtime.NumCPU())
	for i := range lanes {
		l, err := dialLane(srv.httpAddr, srv.binAddr)
		if err != nil {
			return nil, err
		}
		defer l.close()
		lanes[i] = l
	}
	// A collection cycle in the load generator would take CPU from the
	// pacer and the lanes mid-phase; collect now and not again until the
	// phases are over.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var err error
	if res.s0, err = srv.scrape(); err != nil {
		return nil, err
	}
	res.revision = buildRevision(res.s0)
	var tc *traceCollector
	if traced {
		tc = startTraceCollector(srv)
	}
	res.open = runOpen(lanes, p.open)
	if res.s1, err = srv.scrape(); err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	res.closed = runClosed(lanes, p.closed, p.closedW, p.closeDur)
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	res.cpuSecs = cpu1 - cpu0
	if res.s2, err = srv.scrape(); err != nil {
		return nil, err
	}
	if tc != nil {
		res.trace = tc.finish()
	}

	// With writes stopped, what the server answers must be what the model
	// it now serves computes.
	if err := probeServedModel(srv, lanes[0], p); err != nil {
		res.probeErr = err.Error()
	}
	if res.rssMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	return res, nil
}

// probeServedModel fetches the serving model, estimates the probe set
// in-process, and requires the server's answers to match bit for bit.
func probeServedModel(srv *server, l *lane, p *plan) error {
	b, err := srv.get("/v1/models/default")
	if err != nil {
		return err
	}
	m, err := modelio.LoadAny(bytes.NewReader(b))
	if err != nil {
		return err
	}
	req := &request{
		cls:  clsBatch,
		nq:   len(p.probeSet),
		wire: httpRequest("POST", "/v1/estimate", load.BatchBody("", p.probeSet)),
		want: make([]float64, len(p.probeSet)),
	}
	core.EstimateRangesInto(m, p.probeSet, 1, req.want)
	if err := l.do(req); err != nil {
		return fmt.Errorf("post-run probe: %w", err)
	}
	return nil
}

// buildRevision reads the VCS revision selserve reports about itself.
func buildRevision(s *obs.Scrape) string {
	f := s.Family("selserve_build_info")
	if f == nil || len(f.Samples) == 0 {
		return "unknown"
	}
	const key = `revision="`
	l := f.Samples[0].Labels
	i := bytes.Index([]byte(l), []byte(key))
	if i < 0 {
		return "unknown"
	}
	rest := l[i+len(key):]
	if j := bytes.IndexByte([]byte(rest), '"'); j >= 0 {
		return rest[:j]
	}
	return "unknown"
}
