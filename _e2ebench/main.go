// Command e2ebench is the repository benchmark. It renders every input
// from a seed, runs the paper's workflow end to end — a training process
// (QUADHIST and PTSHIST on data-driven range workloads) and the real
// selserve binary under open- and closed-loop load — checks every answer,
// and prints one JSON result line.
//
// _e2ebench/run.sh builds selserve and this driver from the checkout and
// runs it; from the repository root:
//
//	bash _e2ebench/run.sh --workload distinct_read --seed 1 --seconds 26 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// the run adds a traced serving pass and in-process layer timings and the
// result holds the per-layer metrics. The line before the result is a
// report: environment, offered rates, sample counts and any errors.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	selserve string
	workdir  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var opt options
	var trace int
	var child, spin, echo bool
	var modelOut string
	flag.StringVar(&opt.workload, "workload", "", "workload: distinct_read, repeat_rw or train")
	flag.Uint64Var(&opt.seed, "seed", 1, "input seed")
	flag.IntVar(&opt.seconds, "seconds", 26, "run length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced pass and reports per-layer metrics")
	flag.StringVar(&opt.selserve, "selserve", "", "path to the selserve binary")
	flag.StringVar(&opt.workdir, "workdir", "", "directory for model files and server logs")
	flag.BoolVar(&child, "train-child", false, "run the training phase and print its report (internal)")
	flag.BoolVar(&spin, "spin", false, "keep every CPU awake at SCHED_IDLE until killed (internal)")
	flag.BoolVar(&echo, "echo", false, "echo loopback connections until killed (internal)")
	flag.StringVar(&modelOut, "model-out", "", "training phase: write the QUADHIST snapshot here (internal)")
	flag.Parse()
	opt.trace = trace == 1
	if spin {
		spinForever()
	}
	if echo {
		echoForever()
	}

	cfg, err := workloadByName(opt.workload)
	if err != nil || opt.seconds < 1 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (workload %q, seconds %d, trace %d): %v\n", opt.workload, opt.seconds, trace, err)
		os.Exit(2)
	}
	if child {
		if err := trainChild(cfg, opt.seed, modelOut, os.Stdin, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if opt.selserve == "" || opt.workdir == "" {
		fmt.Fprintln(os.Stderr, "e2ebench: -selserve and -workdir are required")
		os.Exit(2)
	}
	if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		fatal(err)
	}
	// One P beyond the lanes, so the pacer never waits for a P while both
	// lanes run; the garbage collector is held off during measured phases
	// (runServing) with this limit as the safety net.
	runtime.GOMAXPROCS(runtime.NumCPU() + 1)
	debug.SetMemoryLimit(1 << 30)
	res, report, err := run(cfg, opt)
	if err != nil {
		fatal(err)
	}
	rep, err := json.Marshal(report)
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n%s\n", rep, out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}

// run executes one workload run: training interleaved with the untraced
// serving passes, then, with --trace 1, the traced pass and layer timings.
//
// The shared host this runs on changes speed by tens of percent for
// minutes at a time, and a process keeps its placement for life. So the
// run alternates training chunks and serving passes, each pass on a fresh
// server, and takes a host reference (calib.go) between every two of them.
// Each end-to-end time is the median, over the run, of each measurement
// scaled by the references taken just before and after it.
func run(cfg workloadCfg, opt options) (*result, map[string]any, error) {
	spinners, err := startSpinners()
	if err != nil {
		return nil, nil, err
	}
	defer stopChild(spinners)
	modelOut := filepath.Join(opt.workdir, "trained.snap")
	trn, err := startTrainer(opt, modelOut)
	if err != nil {
		return nil, nil, err
	}
	trainDone := false
	defer func() {
		if !trainDone {
			trn.kill()
		}
	}()

	passes := cfg.serve.passes
	var refs []float64 // echo round trips, µs, between consecutive units
	ref := func() error {
		us, err := echoRefUS()
		refs = append(refs, us)
		return err
	}
	chunk := phaseLen(opt.seconds, cfg.train.share) / time.Duration(passes+1)
	var chunkEnds []int   // training repetitions done after each chunk
	var chunkRef [][2]int // the references around each chunk
	trainChunk := func(last bool) error {
		n, err := trn.chunk(chunk, last)
		if err != nil {
			return err
		}
		chunkEnds = append(chunkEnds, n)
		chunkRef = append(chunkRef, [2]int{len(refs) - 1, len(refs)})
		return ref()
	}
	if err := ref(); err != nil {
		return nil, nil, err
	}
	if err := trainChunk(false); err != nil { // the first chunk writes the trained model
		return nil, nil, err
	}
	var trained []byte
	if cfg.offline() {
		if trained, err = os.ReadFile(modelOut); err != nil {
			return nil, nil, err
		}
	}
	p, err := render(cfg, opt.seed, opt.seconds, trained)
	if err != nil {
		return nil, nil, err
	}
	setupReps := 2
	if cfg.offline() {
		setupReps = 1 // set-up is the trainer's
	}
	var svs []*servingResult
	var passRef [][2]int
	for i := 0; i < passes; i++ {
		sv, err := runServing(p, opt, false, setupReps)
		if err != nil {
			return nil, nil, err
		}
		svs = append(svs, sv)
		passRef = append(passRef, [2]int{len(refs) - 1, len(refs)})
		if err := ref(); err != nil {
			return nil, nil, err
		}
		if err := trainChunk(i == passes-1); err != nil {
			return nil, nil, err
		}
	}
	trainDone = true
	tr, err := trn.finish()
	if err != nil {
		return nil, nil, err
	}
	sv := svs[0]
	all := append([]*servingResult(nil), svs...)
	var svT *servingResult
	if opt.trace {
		if svT, err = runServing(p, opt, true, 1); err != nil {
			return nil, nil, err
		}
		all = append(all, svT)
	}

	res := &result{Correct: true, Metrics: make(map[string]metric)}
	var errs []string
	var late []float64
	var opens []laneLog
	openSecs := 0.0
	for _, s := range svs {
		late = append(late, s.open.late...)
		opens = append(opens, s.open.laneLog)
		openSecs += s.open.secs
	}
	open := merge(opens, late, openSecs) // every untraced pass's open loop
	var allLate []float64                // every pass's, for the validity gate
	for _, pass := range all {
		for _, ph := range []*phaseResult{pass.open, pass.closed} {
			res.Attempted += ph.attempted
			res.Failed += ph.failed
			errs = append(errs, ph.errs...)
		}
		res.Attempted++ // the post-run probe
		if pass.probeErr != "" {
			res.Failed++
			errs = append(errs, pass.probeErr)
		}
		allLate = append(allLate, pass.open.late...)
	}
	if !latenessOK(allLate, lateBoundUS) {
		res.Correct = false
		errs = append(errs, fmt.Sprintf("invalid run: generator lateness p99 above %d µs", lateBoundUS))
	}
	res.Attempted += int64(len(tr.TrainS)) // each training repetition is checked for determinism
	if res.Failed > 0 {
		res.Correct = false
	}
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "e2ebench:", e)
	}

	// scaled collects measurements, each scaled to the reference host by
	// the references around the unit it was taken in; raw keeps them as
	// measured, for the report.
	scaled, raw := map[string][]float64{}, map[string][]float64{}
	add := func(name string, v float64, around [2]int, perTime bool) {
		k := hostScale(refs[around[0]], refs[around[1]])
		if perTime {
			k = 1 / k
		}
		scaled[name] = append(scaled[name], v*k)
		raw[name] = append(raw[name], v)
	}
	for i, s := range svs {
		for _, c := range []class{clsSingle, clsBatch, clsBin, clsStream, clsFeedback} {
			add(c.String()+"_p50_us", pct(s.open.lat[c], 0.5), passRef[i], false)
		}
		add("peak_qps", float64(s.closed.queries)/s.closed.secs, passRef[i], true)
		if !cfg.offline() {
			for _, d := range s.setup {
				add("setup_s", d, passRef[i], false)
			}
		}
	}
	if cfg.offline() {
		// The trainer's set-up is one burst before the first reference,
		// which tracks it worse than it drifts; it is reported unscaled.
		scaled["setup_s"] = append(scaled["setup_s"], tr.SetupS...)
		raw["setup_s"] = append(raw["setup_s"], tr.SetupS...)
	}
	rep := 0
	for i, end := range chunkEnds {
		for ; rep < end && rep < len(tr.TrainS); rep++ {
			add("train_s", tr.TrainS[rep], chunkRef[i], false)
		}
	}

	set := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	rawMedians := map[string]float64{}
	for name, v := range raw {
		rawMedians[name] = median(v)
	}
	if !opt.trace {
		for _, m := range []struct{ name, unit string }{
			{"setup_s", "s"}, {"single_p50_us", "us"}, {"batch_p50_us", "us"}, {"bin_p50_us", "us"},
			{"stream_p50_us", "us"}, {"feedback_p50_us", "us"}, {"peak_qps", "1/s"}, {"train_s", "s"},
		} {
			set(m.name, m.unit, median(scaled[m.name]))
		}
		rss := median(perPassRSS(svs))
		if cfg.offline() {
			rss = tr.RSSMB
		}
		set("rss_mb", "MB", rss)
		set("train_rms", "rms", tr.RMS)
		set("train_qerr_p95", "qerror", tr.QErrP95)
	} else {
		layerMetrics(set, p, sv, svT, tr, late)
	}

	report := map[string]any{
		"workload": cfg.name,
		"seed":     opt.seed,
		"seconds":  opt.seconds,
		"trace":    opt.trace,
		"env":      environment(sv.revision),
		"offered_rates_per_s": func() map[string]float64 {
			m := map[string]float64{}
			for c := class(0); c < nClasses; c++ {
				if r := cfg.serve.rates[c]; r > 0 {
					m[c.String()] = r
				}
			}
			return m
		}(),
		"lanes":                    runtime.NumCPU(),
		"serving_model":            map[string]any{"buckets": p.buckets, "online": cfg.serve.online, "online_batch": cfg.serve.onlineBatch},
		"serving_passes":           len(svs),
		"open_loop_s_per_pass":     sv.open.secs,
		"closed_loop_s_per_pass":   sv.closed.secs,
		"samples":                  sampleCounts(open),
		"tail_us_p90_p95_p99_p999": tails(open),
		"lateness_us":              map[string]float64{"p50": pct(late, 0.5), "p90": pct(late, 0.9), "p99": pct(late, 0.99), "max": pct(late, 1)},
		"echo_ref_us":              refs,
		"unscaled_medians":         rawMedians,
		"unscaled":                 raw,
		"setup_runs":               len(raw["setup_s"]),
		"train_reps":               len(tr.TrainS),
		"trainer_setup_s":          tr.SetupS,
		"train":                    map[string]any{"hist_buckets": tr.HistBkts, "evaluated": tr.Evaluated, "qerr_floor": qerrFloor, "set_rms": tr.SetRMS, "set_qerr_p95": tr.SetQErr},
		"errors":                   errs,
	}
	return res, report, nil
}

func perPassRSS(svs []*servingResult) []float64 {
	var v []float64
	for _, s := range svs {
		v = append(v, s.rssMB)
	}
	return v
}

// offline reports whether training is the workload's main work, so its
// set-up and memory are the trainer's.
func (w workloadCfg) offline() bool { return w.serve.buckets == 0 }

// tails lists upper percentiles per class, to show the shape of the tail.
func tails(ph *phaseResult) map[string][]float64 {
	m := map[string][]float64{}
	for c := class(0); c < nClasses; c++ {
		if lat := ph.lat[c]; len(lat) > 0 {
			m[c.String()] = []float64{pct(lat, 0.9), pct(lat, 0.95), pct(lat, 0.99), pct(lat, 0.999)}
		}
	}
	return m
}

func sampleCounts(ph *phaseResult) map[string]int {
	m := map[string]int{}
	for c := class(0); c < nClasses; c++ {
		if n := len(ph.lat[c]); n > 0 {
			m[c.String()] = n
		}
	}
	m["lateness"] = len(ph.late)
	return m
}

// layerMetrics fills the per-layer metrics of a --trace 1 run. Histogram
// deltas and counters come from the untraced pass; span self times and
// the per-class handler split from the traced pass.
func layerMetrics(set func(string, string, float64), p *plan, sv, svT *servingResult, tr *trainResult, late []float64) {
	const reqSecs = "selserve_http_request_seconds"
	// The p99s of the untraced pass: on a shared two-CPU box they swing
	// with the host's load far more than any bound could absorb, so they
	// are reported here, beside the layers that explain them, rather than
	// gated as end-to-end metrics.
	for _, c := range []class{clsSingle, clsBatch, clsBin, clsStream, clsFeedback} {
		set("tail."+c.String()+"_p99_us", "us", pct(sv.open.lat[c], 0.99))
	}
	tt := svT.trace
	set("serve.single.handler_p50_us", "us", median(tt.singleUS))
	set("serve.batch.handler_p50_us", "us", median(tt.batchUS))
	set("serve.stream.handler_p50_us", "us", histQuantileUS(sv.s0, sv.s1, reqSecs, routeLabel("POST /v1/estimate/stream"), 0.5))
	set("serve.single.net_p50_us", "us", pct(svT.open.lat[clsSingle], 0.5)-median(tt.singleUS))
	set("serve.cpu_us_per_query", "us", sv.cpuSecs*1e6/float64(sv.closed.queries))
	set("wirebin.frame_p50_us", "us", histQuantileUS(sv.s0, sv.s1, "selserve_bin_frame_seconds", "", 0.5))

	qs := p.estimateQueries()
	set("core.kernel_ns_per_query", "ns", kernelNSPerQuery(p.model, qs))
	hits := counterDelta(sv.s0, sv.s2, "selserve_estimate_cache_hits_total")
	misses := counterDelta(sv.s0, sv.s2, "selserve_estimate_cache_misses_total")
	set("cache.hit_ratio", "ratio", hits/math.Max(hits+misses, 1))
	set("cache.lookup_ns", "ns", cacheLookupNS(qs))
	set("workload.repeat_share", "ratio", repeatShare(qs))

	set("online.update_p50_us", "us", histQuantileUS(sv.s0, sv.s1, "selserve_online_update_seconds", "", 0.5))
	set("online.update_p99_us", "us", histQuantileUS(sv.s0, sv.s1, "selserve_online_update_seconds", "", 0.99))
	set("serve.feedback.handler_p99_us", "us", histQuantileUS(sv.s0, sv.s1, reqSecs, routeLabel("POST /v1/feedback"), 0.99))
	set("online.publishes", "count", counterDelta(sv.s0, sv.s2, "selserve_online_published_total"))
	set("online.conflicts", "count", counterDelta(sv.s0, sv.s2, "selserve_online_conflicts_total"))
	snap := p.snapshot
	if len(p.swaps) > 0 {
		snap = p.swaps[0]
	}
	ms, _ := snapshotLoadMS(snap) // render already loaded this snapshot once
	set("modelio.load_ms", "ms", ms)
	set("serve.swap.handler_p50_ms", "ms", histQuantileUS(sv.s0, sv.s1, reqSecs, routeLabel("PUT /v1/models/{name}"), 0.5)/1e3)

	set("workload.label_s", "s", median(tr.LabelS))
	for _, st := range []string{"hist.tau_search", "hist.quadtree_build", "hist.design_matrix", "hist.solve", "ptshist.design_matrix", "ptshist.solve"} {
		set(st+"_s", "s", median(tr.Stages[st]))
	}
	set("solver.hist_iterations", "count", float64(tr.HistIters))
	set("solver.ptshist_iterations", "count", float64(tr.PtsIters))

	set("harness.late_p50_us", "us", pct(late, 0.5))
	set("harness.late_p99_us", "us", pct(late, 0.99))
	qps := float64(sv.closed.queries) / sv.closed.secs
	qpsT := float64(svT.closed.queries) / svT.closed.secs
	set("obs.trace_overhead_pct", "%", 100*(qps-qpsT)/qps)
	sent := svT.open.sent[clsSingle] + svT.open.sent[clsBatch] + svT.closed.sent[clsSingle] + svT.closed.sent[clsBatch]
	set("obs.trace_coverage", "ratio", float64(len(tt.singleUS)+len(tt.batchUS))/math.Max(float64(sent), 1))
	for name, span := range map[string]string{
		"http_estimate":   "http POST /v1/estimate",
		"http_stream":     "http POST /v1/estimate/stream",
		"http_feedback":   "http POST /v1/feedback",
		"http_swap":       "http PUT /v1/models/{name}",
		"cache_lookup":    "serve.cache_lookup",
		"estimate_ranges": "core.estimate_ranges",
		"publish_model":   "serve.publish_model",
	} {
		set("trace."+name+".self_us", "us", tt.selfUS[span])
	}
}

// environment records what a result was measured on.
func environment(revision string) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					cpu = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"cpu_model":     cpu,
		"revision":      revision,
		"source_sha256": sourceDigest("."),
	}
}

// sourceDigest hashes the Go sources and module files under root, which
// identifies the measured code even in a checkout without version control.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
