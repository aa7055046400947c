package serve

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/online"
)

// onlineManager is the serving side of internal/online: it owns one
// Updater per model name and turns accepted feedback into published weight
// updates on the request path, microseconds after the observation arrives.
// The background retrainer stays on as the structural fallback — it
// rebuilds bucket geometry, which weight updates cannot, and covers the
// model families that do not implement core.Reweightable.
//
// Concurrency: updates for one model serialize on its onlineState mutex
// (the online.Updater contract); different models update independently.
// Estimate traffic never takes these locks — it reads whatever entry the
// registry currently publishes. Publication goes through the registry's
// CompareAndSwap keyed on the entry the updater was built from, so an
// online update can never clobber a concurrent retrain or upload; on a
// lost race the updater is discarded and rebuilt from the winner.
type onlineManager struct {
	srv   *Server
	rule  online.Rule
	rate  float64
	batch int

	mu     sync.Mutex
	states map[string]*onlineState

	applied   *obs.Counter
	skipped   *obs.Counter
	published *obs.Counter
	conflicts *obs.Counter
	fallbacks *obs.Counter
	drift     *obs.Gauge     // cumulative L1 weight drift
	latency   *obs.Histogram // seconds per Apply+publish
}

// onlineState is one model's updater plus its pending mini-batch.
type onlineState struct {
	mu      sync.Mutex
	gen     int64 // registry generation the updater's model corresponds to
	badGen  int64 // generation probed and found unsupported (0 = none)
	updater online.Updater
	pending []core.LabeledQuery
}

// onlineUpdateBuckets spans 1µs–100ms: the target regime is tens of
// microseconds, and anything beyond the top bucket is a pathology the
// overflow count surfaces. Thirteen bounds per decade (×1.19 apart) let
// a quantile read from them show a ×1.2 change in the fold's latency.
var onlineUpdateBuckets = obs.ExpBuckets(1e-6, 1e-1, 13)

func newOnlineManager(s *Server) *onlineManager {
	reg := s.metrics
	return &onlineManager{
		srv:    s,
		rule:   s.opts.OnlineRule,
		rate:   s.opts.OnlineRate,
		batch:  s.opts.OnlineBatchSize,
		states: make(map[string]*onlineState),
		applied: reg.Counter("selserve_online_applied_total",
			"Feedback observations folded into serving weights online."),
		skipped: reg.Counter("selserve_online_skipped_total",
			"Feedback observations the online updater could not use (no bucket coverage or invalid label)."),
		published: reg.Counter("selserve_online_published_total",
			"Online weight updates published to the registry."),
		conflicts: reg.Counter("selserve_online_conflicts_total",
			"Online publishes lost to a concurrent retrain or upload (updater rebuilt from the winner)."),
		fallbacks: reg.Counter("selserve_online_fallbacks_total",
			"Feedback observations routed to the retrain-only path (model family not reweightable)."),
		drift: reg.Gauge("selserve_online_weight_drift",
			"Cumulative L1 distance the serving weights have moved under online updates."),
		latency: reg.Histogram("selserve_online_update_seconds",
			"Latency of one online update batch (fold + publish), in seconds.",
			onlineUpdateBuckets),
	}
}

// state finds or creates the per-model state.
func (m *onlineManager) state(name string) *onlineState {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.states[name]
	if !ok {
		st = &onlineState{}
		m.states[name] = st
	}
	return st
}

// ingest folds accepted feedback into the model's online updater,
// publishing a weight update once the configured mini-batch has
// accumulated. Called on the /v1/feedback request path after the ring add;
// the ring still sees every observation, so the retrain fallback is
// unaffected by whatever happens here.
func (m *onlineManager) ingest(name string, batch []core.LabeledQuery) {
	if len(batch) == 0 {
		return
	}
	st := m.state(name)
	st.mu.Lock()
	defer st.mu.Unlock()

	entry, ok := m.srv.registry.Get(name)
	if !ok {
		return
	}
	if st.updater == nil || st.gen != entry.Generation {
		// First feedback for this model, or the registry moved on under us
		// (retrain swap, upload, or a lost publish race): rebuild the
		// updater from the entry that is actually serving.
		if st.badGen == entry.Generation {
			m.fallbacks.Add(int64(len(batch)))
			return
		}
		u, supported := online.ForModel(entry.Model, online.Options{Rule: m.rule, Rate: m.rate})
		if !supported {
			st.badGen = entry.Generation
			st.updater = nil
			m.fallbacks.Add(int64(len(batch)))
			return
		}
		st.updater = u
		st.gen = entry.Generation
		st.pending = st.pending[:0]
	}

	st.pending = append(st.pending, batch...)
	if len(st.pending) < m.batch {
		return
	}
	start := time.Now()
	nm, stats := st.updater.Apply(st.pending)
	st.pending = st.pending[:0]
	m.applied.Add(int64(stats.Applied))
	m.skipped.Add(int64(stats.Skipped))
	if stats.Drift > 0 {
		m.drift.Add(stats.Drift)
	}
	if nm != nil {
		if e := m.srv.registry.CompareAndSwap(name, "online", entry, nm); e != nil {
			st.gen = e.Generation
			m.published.Inc()
		} else {
			// A retrain or upload won the slot between our Get and the
			// swap. Its model supersedes our fold; start over from it on
			// the next feedback.
			st.updater = nil
			m.conflicts.Inc()
		}
	}
	m.latency.Observe(time.Since(start).Seconds())
}
