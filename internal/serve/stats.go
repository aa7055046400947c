package serve

import (
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// endpointStats holds one route's metric handles in the server's
// obs.Registry.
type endpointStats struct {
	requests  *obs.Counter
	errors4xx *obs.Counter
	errors5xx *obs.Counter
	latency   *obs.Histogram // seconds
	inflight  atomic.Int64   // requests currently inside the handler
	spanName  string         // precomputed so tracing never formats per request
}

func (e *endpointStats) record(d time.Duration, status int) {
	e.requests.Inc()
	switch {
	case status >= 500:
		e.errors5xx.Inc()
	case status >= 400:
		e.errors4xx.Inc()
	}
	e.latency.Observe(d.Seconds())
}

// statsSet lazily registers the per-route metric handles, keyed by the
// route pattern.
type statsSet struct {
	reg    *obs.Registry
	mu     sync.Mutex
	routes map[string]*endpointStats
}

func newStatsSet(reg *obs.Registry) *statsSet {
	return &statsSet{reg: reg, routes: make(map[string]*endpointStats)}
}

func (s *statsSet) route(pattern string) *endpointStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.routes[pattern]
	if !ok {
		rl := obs.Label{Key: "route", Value: pattern}
		e = &endpointStats{
			requests: s.reg.Counter("selserve_http_requests_total",
				"HTTP requests served, by route.", rl),
			errors4xx: s.reg.Counter("selserve_http_errors_total",
				"HTTP error responses, by class and route.",
				obs.Label{Key: "class", Value: "4xx"}, rl),
			errors5xx: s.reg.Counter("selserve_http_errors_total",
				"HTTP error responses, by class and route.",
				obs.Label{Key: "class", Value: "5xx"}, rl),
			latency: s.reg.Histogram("selserve_http_request_seconds",
				"HTTP request latency in seconds, by route.", nil, rl),
			spanName: "http " + pattern,
		}
		// Func-backed so the scrape reads the live atomic: a load-harness
		// scrape mid-run sees how deep each route's concurrency actually got.
		s.reg.GaugeFunc("selserve_http_inflight",
			"Requests currently being handled, by route.",
			func() float64 { return float64(e.inflight.Load()) }, rl)
		s.routes[pattern] = e
	}
	return e
}

// statusRecorder captures the response code for the stats middleware.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards streaming flushes to the underlying writer when it
// supports them, so wrapping a handler in the middleware never silently
// buffers a response the handler meant to stream.
func (w *statusRecorder) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController, which
// discovers optional interfaces (deadlines, hijacking) by unwrapping.
func (w *statusRecorder) Unwrap() http.ResponseWriter {
	return w.ResponseWriter
}

// recorderPool recycles statusRecorders: the middleware wraps every
// request, so a per-request allocation here would alone break the
// zero-allocation estimate-path gate.
var recorderPool = sync.Pool{New: func() any { return new(statusRecorder) }}

// instrument wraps a handler with request counting, latency capture, trace
// span creation, and 5xx structured logging for its route pattern.
func (s *Server) instrument(pattern string, h http.HandlerFunc) http.HandlerFunc {
	es := s.stats.route(pattern)
	//selvet:zeroalloc
	return func(w http.ResponseWriter, r *http.Request) {
		rec := recorderPool.Get().(*statusRecorder)
		rec.ResponseWriter, rec.status = w, http.StatusOK
		sp := s.tracer.StartRoot(es.spanName)
		if sp.Active() {
			r = r.WithContext(obs.ContextWithSpan(r.Context(), sp))
		}
		es.inflight.Add(1)
		start := time.Now()
		h(rec, r)
		d := time.Since(start)
		es.inflight.Add(-1)
		sp.End()
		es.record(d, rec.status)
		if rec.status >= 500 && s.logger != nil {
			s.logger.LogAttrs(r.Context(), slog.LevelError, "request failed",
				slog.String("route", pattern),
				slog.Int("status", rec.status),
				slog.Duration("duration", d),
				slog.Uint64("trace_id", sp.TraceID()),
			)
		}
		rec.ResponseWriter = nil // handlers never retain the recorder
		recorderPool.Put(rec)
	}
}
