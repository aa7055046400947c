// Package serve is the online half of the paper's workflow: the offline
// pipeline (selgen → seltrain) learns a selectivity model from query
// feedback, and this package serves it to a query optimizer over HTTP while
// continuing to learn. A registry of named models answers estimate calls
// lock-free via atomically swapped snapshots; observed true selectivities
// stream into a bounded feedback buffer; and a background retrainer
// periodically refits the model on fresh feedback and hot-swaps it in when
// it does not regress — the serve/observe/refit loop that query-driven
// estimators like QuickSel assume around them. Stdlib only.
//
// Endpoints:
//
//	POST /v1/estimate        — selectivity of one query or a batch
//	POST /v1/estimate/stream — NDJSON: one query per line, one answer per line
//	POST /v1/feedback        — observed (query, selectivity) pairs
//	POST /v1/retrain         — force a retraining pass (operators, tests)
//	PUT  /v1/models/{name}   — upload/replace a modelio envelope
//	GET  /v1/models/{name}   — download the serving model as an envelope
//	GET  /healthz            — liveness
//	GET  /statz              — model inventory and the last retrain
//	GET  /metrics            — Prometheus text exposition
//	GET  /debug/trace        — sampled request spans as Chrome trace JSON
//
// All three estimate transports (these two routes and the binary listener
// of binserver.go) share one estimate core, estimate.go.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/modelio"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/parallel"
	"repro/internal/wirebin"
)

// Options tunes the server; zero values take the defaults noted per field.
type Options struct {
	// FeedbackCapacity bounds each model's feedback ring (default 4096).
	FeedbackCapacity int
	// MinRetrainSamples is how much buffered feedback a model needs
	// before the retrainer will refit it (default 32).
	MinRetrainSamples int
	// RetrainInterval is the background refit period (default 15s).
	RetrainInterval time.Duration
	// RetrainTolerance is how much worse (absolute RMS on held-out
	// feedback) a candidate may be and still replace the serving model
	// (default 0: never swap in a regression).
	RetrainTolerance float64
	// MaxBodyBytes caps request bodies (default 64 MiB — model envelopes
	// can be large).
	MaxBodyBytes int64
	// DrainTimeout bounds graceful shutdown (default 10s).
	DrainTimeout time.Duration
	// EstimateWorkers is the worker count for batched estimate requests
	// (default 0: the shared pool's default, i.e. GOMAXPROCS unless
	// overridden via parallel.SetDefault).
	EstimateWorkers int
	// Metrics is the observability registry backing GET /metrics
	// (default: a fresh private registry).
	Metrics *obs.Registry
	// Tracer records request/retrain spans for GET /debug/trace (default:
	// a fresh tracer with obs.DefaultTraceCapacity spans).
	Tracer *obs.Tracer
	// TraceSample sets request-trace sampling: 0 disables (default),
	// 1 traces every request, N traces one request in N.
	TraceSample int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (off by
	// default; profiling endpoints can stall a serving process).
	EnablePprof bool
	// OnlineUpdates enables the internal/online fast path: accepted
	// feedback is folded into the serving model's weights on the request
	// path and published as a copy-on-write registry swap, microseconds
	// after the observation arrives. The background retrainer stays on as
	// the structural fallback. Off by default.
	OnlineUpdates bool
	// OnlineBatchSize is how many accepted observations accumulate before
	// an online update is applied and published (default 1: every
	// observation publishes).
	OnlineBatchSize int
	// OnlineRate is the online learning rate η (default online.DefaultRate).
	OnlineRate float64
	// OnlineRule picks the online update rule (default online.RuleGradient).
	OnlineRule online.Rule
	// Logger receives structured request/retrain logs (default: no
	// logging; cmd/selserve passes a slog.Logger).
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.FeedbackCapacity <= 0 {
		o.FeedbackCapacity = 4096
	}
	if o.MinRetrainSamples <= 0 {
		o.MinRetrainSamples = 32
	}
	if o.RetrainInterval <= 0 {
		o.RetrainInterval = 15 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 64 << 20
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 10 * time.Second
	}
	if o.OnlineBatchSize <= 0 {
		o.OnlineBatchSize = 1
	}
	if o.OnlineRate <= 0 {
		o.OnlineRate = online.DefaultRate
	}
	return o
}

// Server is a concurrent selectivity-estimation service.
type Server struct {
	opts     Options
	registry *Registry
	feedback *feedbackStore
	stats    *statsSet
	online   *onlineManager // nil when online updates are disabled
	metrics  *obs.Registry
	tracer   *obs.Tracer
	logger   *slog.Logger
	started  time.Time

	// encodeErrs counts response encode/write failures (satisfying the
	// contract that writeJSON never silently discards an error).
	encodeErrs *obs.Counter

	// bin holds the binary-protocol listener's metric handles (see
	// binserver.go); registered unconditionally for stable scrape series.
	bin binStats

	retrainRuns  *obs.Counter
	retrainSwaps *obs.Counter
	retrainErrs  *obs.Counter

	retrainMu   sync.Mutex
	retrainSeen map[string]int64 // feedback total at last retrain, per model
	retrainErr  string
	lastRetrain *RetrainResult // nil until the first retrain attempt
}

// NewServer builds a server with an empty registry.
func NewServer(opts Options) *Server {
	opts = opts.withDefaults()
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	tracer := opts.Tracer
	if tracer == nil {
		tracer = obs.NewTracer(obs.DefaultTraceCapacity)
	}
	tracer.SetSampling(opts.TraceSample)
	s := &Server{
		opts:        opts,
		registry:    NewRegistry(),
		feedback:    newFeedbackStore(opts.FeedbackCapacity),
		stats:       newStatsSet(reg),
		metrics:     reg,
		tracer:      tracer,
		logger:      opts.Logger,
		started:     time.Now(),
		retrainSeen: make(map[string]int64),
	}
	s.encodeErrs = reg.Counter("selserve_encode_errors_total",
		"Response encode or write failures (client hangups included).")
	s.registerMetrics(reg)
	s.registerBinMetrics(reg)
	if opts.OnlineUpdates {
		s.online = newOnlineManager(s)
	}
	return s
}

// registerMetrics registers the server-wide series: the retrainer's
// counters as handles, and func-backed series that read state the
// feedback rings and worker pool already keep, so no count is kept twice.
func (s *Server) registerMetrics(reg *obs.Registry) {
	reg.GaugeFunc("selserve_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.started).Seconds() })
	reg.Gauge("selserve_build_info",
		"Build metadata as labels; the value is always 1.",
		obs.Label{Key: "go_version", Value: runtime.Version()},
		obs.Label{Key: "revision", Value: buildRevision()},
	).Set(1)
	reg.GaugeFunc("selserve_models",
		"Models currently registered.",
		func() float64 { return float64(len(s.registry.Names())) })

	reg.CounterFunc("selserve_feedback_observations_total",
		"Feedback observations accepted across all models.",
		func() int64 { total, _, _ := s.feedback.Totals(); return total })
	reg.CounterFunc("selserve_feedback_dropped_total",
		"Feedback observations overwritten by newer ones (any reason).",
		func() int64 { _, dropped, _ := s.feedback.Totals(); return dropped })
	reg.CounterFunc("selserve_feedback_lost_total",
		"Feedback observations overwritten before any retrain snapshot read them.",
		func() int64 { _, _, lost := s.feedback.Totals(); return lost })

	s.retrainRuns = reg.Counter("selserve_retrain_runs_total",
		"Retrain attempts (swapped or not).")
	s.retrainSwaps = reg.Counter("selserve_retrain_swaps_total",
		"Retrains whose candidate was hot-swapped into serving.")
	s.retrainErrs = reg.Counter("selserve_retrain_errors_total",
		"Retrain attempts that failed.")

	reg.CounterFunc("selserve_pool_regions_total",
		"Parallel regions entered by the shared worker pool.",
		func() int64 { return parallel.ReadStats().Regions })
	reg.CounterFunc("selserve_pool_regions_serial_total",
		"Parallel regions that ran single-threaded.",
		func() int64 { return parallel.ReadStats().Serial })
	reg.CounterFunc("selserve_pool_workers_spawned_total",
		"Extra worker goroutines spawned by the pool.",
		func() int64 { return parallel.ReadStats().Spawned })
	reg.CounterFunc("selserve_pool_saturated_total",
		"Regions that stopped spawning because the pool was saturated.",
		func() int64 { return parallel.ReadStats().Saturated })
}

// buildRevision extracts the VCS revision baked into the binary, or
// "unknown" for builds outside a repository.
func buildRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				return kv.Value
			}
		}
	}
	return "unknown"
}

// Metrics exposes the server's observability registry so embedders can
// add their own series or render exposition out-of-band.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Tracer exposes the server's span tracer.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Registry exposes the model registry, e.g. for preloading models from
// disk before serving.
func (s *Server) Registry() *Registry { return s.registry }

// Handler returns the HTTP handler with every route instrumented.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	route("POST /v1/estimate", s.handleEstimate)
	route("POST /v1/estimate/stream", s.handleEstimateStream)
	route("POST /v1/feedback", s.handleFeedback)
	route("POST /v1/retrain", s.handleRetrain)
	route("PUT /v1/models/{name}", s.handlePutModel)
	route("GET /v1/models/{name}", s.handleGetModel)
	route("GET /healthz", s.handleHealthz)
	route("GET /statz", s.handleStatz)
	metricsHandler := s.metrics.Handler()
	route("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		metricsHandler.ServeHTTP(w, r)
	})
	route("GET /debug/trace", s.handleDebugTrace)
	if s.opts.EnablePprof {
		// Explicit mounts (not the package's DefaultServeMux side effect)
		// so profiling is reachable only when the operator asked for it.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// handleDebugTrace exports the tracer's span ring as Chrome trace-event
// JSON (load in chrome://tracing or https://ui.perfetto.dev).
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	// A write failure means the client hung up mid-download.
	_ = s.tracer.WriteChromeTrace(w)
}

// Serve serves HTTP on ln until ctx is cancelled, then drains in-flight
// requests for at most DrainTimeout. The retrainer runs for the same
// lifetime. Serve returns nil on a clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{Handler: s.Handler()}
	retrainCtx, stopRetrain := context.WithCancel(ctx)
	defer stopRetrain()
	go s.retrainLoop(retrainCtx)

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), s.opts.DrainTimeout)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		// Best-effort hard stop after a failed graceful drain; the drain
		// error is the one worth reporting.
		_ = hs.Close()
		return fmt.Errorf("serve: drain: %w", err)
	}
	return nil
}

// DefaultModelName is used when a request omits the model name.
const DefaultModelName = "default"

// ---- wire format ----

// wireQuery is one geometric query in any of the three classes of the
// repository's workloads. Exactly one of the class-specific field groups
// must be present: lo+hi (box), a+b (halfspace), center+radius (ball).
type wireQuery struct {
	Lo     []float64 `json:"lo,omitempty"`
	Hi     []float64 `json:"hi,omitempty"`
	A      []float64 `json:"a,omitempty"`
	B      *float64  `json:"b,omitempty"`
	Center []float64 `json:"center,omitempty"`
	Radius *float64  `json:"radius,omitempty"`
}

func (q wireQuery) toRange() (geom.Range, error) {
	switch {
	case q.Lo != nil || q.Hi != nil:
		if len(q.Lo) == 0 || len(q.Lo) != len(q.Hi) {
			return nil, errBoxDims
		}
		return geom.NewBox(geom.Point(q.Lo), geom.Point(q.Hi)), nil
	case q.A != nil || q.B != nil:
		if len(q.A) == 0 || q.B == nil {
			return nil, errHalfspaceAB
		}
		return geom.NewHalfspace(geom.Point(q.A), *q.B), nil
	case q.Center != nil || q.Radius != nil:
		if len(q.Center) == 0 || q.Radius == nil {
			return nil, errBallCR
		}
		if *q.Radius < 0 {
			return nil, errBallNegative
		}
		return geom.NewBall(geom.Point(q.Center), *q.Radius), nil
	}
	return nil, errNoClass
}

type estimateRequest struct {
	Model   string      `json:"model,omitempty"`
	Query   *wireQuery  `json:"query,omitempty"`
	Queries []wireQuery `json:"queries,omitempty"`
}

type estimateResponse struct {
	Model      string    `json:"model"`
	Generation int64     `json:"generation"`
	Estimate   *float64  `json:"estimate,omitempty"`
	Estimates  []float64 `json:"estimates,omitempty"`
}

type observation struct {
	wireQuery
	Sel *float64 `json:"sel"`
}

type feedbackRequest struct {
	Model        string        `json:"model,omitempty"`
	Observations []observation `json:"observations"`
}

type feedbackResponse struct {
	Model    string `json:"model"`
	Accepted int    `json:"accepted"`
	Dropped  int    `json:"dropped"`
}

type modelStatus struct {
	Name       string    `json:"name"`
	Type       string    `json:"type"`
	Buckets    int       `json:"buckets"`
	Generation int64     `json:"generation"`
	Source     string    `json:"source"`
	LoadedAt   time.Time `json:"loaded_at"`
}

// status is the entry's row in /statz and the model upload response.
func (e *Entry) status() modelStatus {
	return modelStatus{Name: e.name, Type: modelTypeName(e.Model), Buckets: e.Model.NumBuckets(),
		Generation: e.Generation, Source: e.Source, LoadedAt: e.LoadedAt}
}

// statzResponse is the GET /statz body: only state that is not a number
// series. Every count, latency and gauge is on GET /metrics.
type statzResponse struct {
	Models    []modelStatus   `json:"models"`
	Retrainer retrainerStatus `json:"retrainer"`
}

type retrainerStatus struct {
	LastError string         `json:"last_error,omitempty"`
	Last      *RetrainResult `json:"last,omitempty"`
}

// ---- handlers ----

type apiError struct {
	Error string `json:"error"`
}

// encodeScratch is a pooled encode buffer with its json.Encoder bound
// once, so control-plane responses reuse one buffer instead of allocating
// an encoder per call.
type encodeScratch struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	es := new(encodeScratch)
	es.enc = json.NewEncoder(&es.buf)
	return es
}}

// writeJSON encodes v through a pooled encoder and writes it in one
// Write. Encode failures (a value the encoder rejects) and short writes
// (the client hung up mid-response) are counted in obs and logged instead
// of silently discarded.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	es := encPool.Get().(*encodeScratch)
	es.buf.Reset()
	if err := es.enc.Encode(v); err != nil {
		encPool.Put(es)
		s.encodeFailed("encode", err)
		http.Error(w, `{"error":"encode response"}`, http.StatusInternalServerError)
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	if _, err := w.Write(es.buf.Bytes()); err != nil {
		s.encodeFailed("write", err)
	}
	encPool.Put(es)
}

// encodeFailed records one response encode/write failure.
func (s *Server) encodeFailed(stage string, err error) {
	s.encodeErrs.Inc()
	if s.logger != nil {
		s.logger.LogAttrs(context.Background(), slog.LevelWarn, "response encode failed",
			slog.String("stage", stage),
			slog.String("error", err.Error()),
		)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// writeFault answers a fault of the estimate core (estimate.go) with its
// rendered message: 404 for an unknown model, 400 for a bad query.
func (s *Server) writeFault(w http.ResponseWriter, code byte, msg []byte) {
	status := http.StatusBadRequest
	if code == wirebin.CodeUnknownModel {
		status = http.StatusNotFound
	}
	s.writeJSON(w, status, apiError{Error: string(msg)})
}

// writeRaw writes pre-encoded JSON bytes: the zero-allocation counterpart
// of writeJSON for the hand-rolled estimate encoder.
//
//selvet:zeroalloc
func (s *Server) writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		s.encodeFailed("write", err)
	}
}

// decodeBody parses a size-limited JSON request body, rejecting unknown
// fields so client typos fail loudly instead of silently estimating the
// wrong thing.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	return true
}

// readBody slurps the request body into the pooled scratch buffer,
// enforcing MaxBodyBytes by hand — http.MaxBytesReader allocates a
// wrapper per request, which the zero-allocation estimate path cannot
// afford. The buffer grows with the bytes that arrive, not with the
// declared Content-Length, which a client may set to MaxBodyBytes and
// never send; the pool would keep a buffer of that size. Returns false
// after writing the error response.
//
//selvet:zeroalloc
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, sc *estimateScratch) bool {
	if r.ContentLength > s.opts.MaxBodyBytes {
		s.writeError(w, http.StatusBadRequest, "invalid request body: http: request body too large")
		return false
	}
	sc.body = sc.body[:0]
	for {
		if len(sc.body) == cap(sc.body) {
			// Grow via append, keeping the doubled capacity pooled.
			sc.body = append(sc.body, 0)[:len(sc.body)]
		}
		n, err := r.Body.Read(sc.body[len(sc.body):cap(sc.body)])
		sc.body = sc.body[:len(sc.body)+n]
		if int64(len(sc.body)) > s.opts.MaxBodyBytes {
			s.writeError(w, http.StatusBadRequest, "invalid request body: http: request body too large")
			return false
		}
		if err == io.EOF {
			return true
		}
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "read request body: %v", err)
			return false
		}
	}
}

// estimateScratch is the per-request working set of the estimate hot
// path. Requests check one out of scratchPool, so steady-state serving
// reuses the same slices and encode buffer instead of allocating per
// request; every slot is (re)assigned before use, so nothing leaks
// between requests.
type estimateScratch struct {
	// decode state (see wire.go)
	body   []byte           // raw request bytes
	name   []byte           // parsed model name
	strbuf []byte           // escape-decoding scratch
	coords []float64        // arena backing every parsed coordinate slice
	boxes  []geom.Box       // parsed concrete geometry, pointed to by ranges
	halfs  []geom.Halfspace //
	balls  []geom.Ball      //
	qerrs  []error          // per-query validation error, nil when valid
	ranges []geom.Range     // one per query, nil when invalid

	// estimate + encode state
	valid   []int        // index of each query without a fault
	validRg []geom.Range // those queries, in order: the kernel's batch
	validV  []float64    // the kernel's answers to validRg
	ests    []float64
	out     []byte // hand-rolled response bytes (or a fault message)
}

var scratchPool = sync.Pool{New: func() any { return new(estimateScratch) }}

// maxPooledBytes caps the backing array a pooled buffer keeps: a pool
// holds its objects while they sit idle, so one oversized request must
// not pin its memory for the requests after it.
const maxPooledBytes = 1 << 20

// dropOversized sets *s to nil when its backing array is over
// maxPooledBytes; the next request that needs it grows a fresh one.
//
//selvet:zeroalloc
func dropOversized[T any](s *[]T) {
	var zero T
	if uintptr(cap(*s))*unsafe.Sizeof(zero) > maxPooledBytes {
		*s = nil
	}
}

// trim drops every oversized buffer before sc goes back to scratchPool.
//
//selvet:zeroalloc
func (sc *estimateScratch) trim() {
	dropOversized(&sc.body)
	dropOversized(&sc.name)
	dropOversized(&sc.strbuf)
	dropOversized(&sc.coords)
	dropOversized(&sc.boxes)
	dropOversized(&sc.halfs)
	dropOversized(&sc.balls)
	dropOversized(&sc.qerrs)
	dropOversized(&sc.ranges)
	dropOversized(&sc.valid)
	dropOversized(&sc.validRg)
	dropOversized(&sc.validV)
	dropOversized(&sc.ests)
	dropOversized(&sc.out)
}

// grow reslices *s to n elements, reallocating only when the pooled
// capacity is too small. Stale values from a previous request may remain
// until overwritten — callers assign every slot they read.
//
//selvet:zeroalloc
func grow[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}

//selvet:zeroalloc
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	sc := scratchPool.Get().(*estimateScratch)
	defer scratchPool.Put(sc)
	defer sc.trim() // deferred calls run last-in first-out: trim, then Put
	if !s.readBody(w, r, sc) {
		return
	}
	sc.resetWire()
	single, nQueries, perr := parseEstimateRequest(sc)
	if perr != nil {
		s.writeError(w, http.StatusBadRequest, "invalid request body: %v", perr)
		return
	}
	if single && nQueries > 0 {
		s.writeError(w, http.StatusBadRequest, "specify either query or queries, not both")
		return
	}
	if len(sc.ranges) == 0 {
		s.writeError(w, http.StatusBadRequest, "no queries given")
		return
	}
	entry, code := s.admit(sc, sc.name, sc.ranges, sc.qerrs)
	if code != 0 {
		s.writeFault(w, code, sc.out)
		return
	}
	ests := s.estimate(entry, sc.ranges, sc.qerrs, sc, obs.SpanFromContext(r.Context()))
	sc.out = appendEstimateResponse(sc.out[:0], modelName(sc.name), entry.Generation, ests, single)
	s.writeRaw(w, http.StatusOK, sc.out)
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	var req feedbackRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Observations) == 0 {
		s.writeError(w, http.StatusBadRequest, "no observations given")
		return
	}
	batch := make([]core.LabeledQuery, len(req.Observations))
	for i, o := range req.Observations {
		q, err := o.toRange()
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "observation %d: %v", i, err)
			return
		}
		if o.Sel == nil || *o.Sel < 0 || *o.Sel > 1 {
			s.writeError(w, http.StatusBadRequest, "observation %d: sel must be in [0,1]", i)
			return
		}
		batch[i] = core.LabeledQuery{R: q, Sel: *o.Sel}
	}
	sc := scratchPool.Get().(*estimateScratch)
	defer scratchPool.Put(sc)
	entry, dropped, code := s.acceptFeedback(sc, []byte(req.Model), batch)
	if code != 0 {
		s.writeFault(w, code, sc.out)
		return
	}
	s.writeJSON(w, http.StatusOK, feedbackResponse{Model: entry.name, Accepted: len(batch), Dropped: dropped})
}

func (s *Server) handleRetrain(w http.ResponseWriter, r *http.Request) {
	results := s.RetrainNow()
	if results == nil {
		results = []RetrainResult{}
	}
	s.writeJSON(w, http.StatusOK, results)
}

func (s *Server) handlePutModel(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	publish := obs.SpanFromContext(r.Context()).Child("serve.publish_model")
	m, err := modelio.LoadAny(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err != nil {
		publish.End()
		// Bad bytes are the client's fault; anything else is ours.
		status := http.StatusInternalServerError
		if errors.Is(err, modelio.ErrMalformed) ||
			errors.Is(err, modelio.ErrUnknownVersion) ||
			errors.Is(err, modelio.ErrUnknownType) ||
			errors.Is(err, modelio.ErrInvalidModel) {
			status = http.StatusBadRequest
		}
		s.writeError(w, status, "load model: %v", err)
		return
	}
	entry := s.registry.Set(name, "upload", m)
	publish.Items = int64(m.NumBuckets())
	publish.End()
	s.writeJSON(w, http.StatusOK, entry.status())
}

func (s *Server) handleGetModel(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	entry, ok := s.registry.Get(name)
	if !ok {
		s.writeError(w, http.StatusNotFound, "model %q not registered", name)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := modelio.Save(w, entry.Model); err != nil {
		// Headers are gone; all we can do is log via the status recorder.
		s.writeError(w, http.StatusInternalServerError, "save model: %v", err)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	models := make([]modelStatus, 0)
	for _, name := range s.registry.Names() {
		entry, ok := s.registry.Get(name)
		if !ok {
			continue
		}
		models = append(models, entry.status())
	}
	s.retrainMu.Lock()
	rt := retrainerStatus{LastError: s.retrainErr, Last: s.lastRetrain}
	s.retrainMu.Unlock()
	s.writeJSON(w, http.StatusOK, statzResponse{Models: models, Retrainer: rt})
}
