package serve

import (
	"context"
	"log/slog"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// ring is a bounded FIFO of labeled queries with drop-oldest backpressure:
// when feedback arrives faster than the retrainer consumes it, the oldest
// observations are overwritten — fresh feedback is worth more than stale.
type ring struct {
	buf   []core.LabeledQuery
	head  int // index of the oldest element
	size  int
	total int64 // observations ever added
	drop  int64 // observations overwritten by newer ones (any reason)
	seen  int64 // total at the last snapshot: observations a consumer has read
	lost  int64 // observations overwritten before ANY snapshot read them
}

func newRing(capacity int) *ring {
	return &ring{buf: make([]core.LabeledQuery, capacity)}
}

// add appends one observation, overwriting the oldest when full. Beyond
// the plain drop count, it tracks observations actually LOST: overwritten
// before any snapshot (retrain pass) read them. An overwrite after a
// snapshot has consumed the element is benign — the signal reached the
// retrainer — so drop and lost can legitimately diverge, and lost is the
// number that means feedback silently vanished.
func (r *ring) add(z core.LabeledQuery) (dropped bool) {
	if len(r.buf) == 0 {
		r.drop++
		r.lost++
		r.total++
		return true
	}
	if r.size == len(r.buf) {
		// Sequence number of the element being overwritten: elements are
		// numbered 0..total-1 in arrival order, and the buffer holds the
		// last size of them, so the oldest buffered one is total−size.
		if oldestSeq := r.total - int64(r.size); oldestSeq >= r.seen {
			r.lost++
		}
		r.buf[r.head] = z
		r.head = (r.head + 1) % len(r.buf)
		r.drop++
		dropped = true
	} else {
		r.buf[(r.head+r.size)%len(r.buf)] = z
		r.size++
	}
	r.total++
	return dropped
}

// snapshot copies the buffered observations in arrival order and marks
// them seen: everything buffered now has reached a consumer, so its later
// overwrite is not a loss.
func (r *ring) snapshot() []core.LabeledQuery {
	out := make([]core.LabeledQuery, r.size)
	for i := 0; i < r.size; i++ {
		out[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.seen = r.total
	return out
}

// feedbackStore keys bounded rings by model name.
type feedbackStore struct {
	mu       sync.Mutex
	capacity int
	rings    map[string]*ring
}

func newFeedbackStore(capacity int) *feedbackStore {
	return &feedbackStore{capacity: capacity, rings: make(map[string]*ring)}
}

// Add buffers observations for name, returning how many displaced older
// ones (backpressure signal echoed to the client).
func (s *feedbackStore) Add(name string, obs []core.LabeledQuery) (dropped int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.rings[name]
	if !ok {
		r = newRing(s.capacity)
		s.rings[name] = r
	}
	for _, z := range obs {
		if r.add(z) {
			dropped++
		}
	}
	return dropped
}

// Snapshot returns the buffered observations and the total ever added for
// name. The total lets the retrainer skip models with no fresh feedback.
func (s *feedbackStore) Snapshot(name string) ([]core.LabeledQuery, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.rings[name]
	if !ok {
		return nil, 0
	}
	return r.snapshot(), r.total
}

// Totals sums observations ever added, ever dropped, and ever lost (see
// ring.add) across all rings; the obs metrics bridge reads these at
// exposition time.
func (s *feedbackStore) Totals() (total, dropped, lost int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.rings {
		total += r.total
		dropped += r.drop
		lost += r.lost
	}
	return total, dropped, lost
}

// Names returns every model name with buffered feedback.
func (s *feedbackStore) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.rings))
	for name := range s.rings {
		names = append(names, name)
	}
	return names
}

// RetrainResult describes one retrain attempt: POST /v1/retrain answers
// with one per model, and /statz shows the last.
type RetrainResult struct {
	Model        string          `json:"model"`
	Samples      int             `json:"samples"`
	CandidateRMS float64         `json:"candidate_rms"`
	CurrentRMS   float64         `json:"current_rms"`
	Swapped      bool            `json:"swapped"`
	Generation   int64           `json:"generation,omitempty"`
	Err          string          `json:"error,omitempty"`
	Train        *obs.TrainStats `json:"train,omitempty"`
}

// retrainLoop periodically refits every model that has accumulated enough
// fresh feedback and hot-swaps improved candidates into the registry.
func (s *Server) retrainLoop(ctx context.Context) {
	t := time.NewTicker(s.opts.RetrainInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.RetrainNow()
		}
	}
}

// RetrainNow runs one retraining pass over every model with feedback and
// returns what happened per model. It is what the background loop calls on
// each tick; tests and operators (POST /v1/retrain) can invoke it directly.
func (s *Server) RetrainNow() []RetrainResult {
	var out []RetrainResult
	for _, name := range s.feedback.Names() {
		res, attempted := s.retrainModel(name)
		if attempted {
			out = append(out, res)
		}
	}
	return out
}

// retrainModel refits one model from its feedback ring. The candidate is
// trained on a stream-striped split and only swapped in if it does not
// regress versus the serving model on the held-out stripe — feedback can be
// noisy, and a guarded swap keeps a bad batch from degrading serving.
func (s *Server) retrainModel(name string) (RetrainResult, bool) {
	entry, ok := s.registry.Get(name)
	if !ok {
		return RetrainResult{}, false // feedback is only accepted for registered models
	}
	// Rings are keyed by name, not generation, so an upload may have
	// changed the model's dimension since this feedback was accepted:
	// train and score only on what fits the entry being refit.
	samples, total := s.feedback.Snapshot(name)
	fit := samples[:0]
	for _, z := range samples {
		if entry.fits(z.R) {
			fit = append(fit, z)
		}
	}
	samples = fit
	if len(samples) < s.opts.MinRetrainSamples {
		return RetrainResult{}, false
	}
	s.retrainMu.Lock()
	seen := s.retrainSeen[name]
	if total == seen {
		s.retrainMu.Unlock()
		return RetrainResult{}, false // nothing new since the last pass
	}
	s.retrainSeen[name] = total
	s.retrainMu.Unlock()

	sp := s.tracer.StartRoot("serve.retrain")
	defer sp.End()

	// Stripe split: every 5th observation is validation, so both sets
	// span the whole feedback window rather than one temporal half.
	train := make([]core.LabeledQuery, 0, len(samples))
	val := make([]core.LabeledQuery, 0, len(samples)/5+1)
	for i, z := range samples {
		if i%5 == 4 {
			val = append(val, z)
		} else {
			train = append(train, z)
		}
	}
	if len(val) == 0 {
		val = train
	}

	tlog := obs.NewTrainLog(sp)
	tr, err := trainerFor(entry.Model, len(train), uint64(total), tlog)
	if err != nil {
		return s.finishRetrain(RetrainResult{Model: name, Samples: len(samples), Err: err.Error()})
	}
	cand, err := tr.Train(train)
	if err != nil {
		return s.finishRetrain(RetrainResult{Model: name, Samples: len(samples), Err: err.Error(), Train: tlog.Stats()})
	}
	res := RetrainResult{
		Model:        name,
		Samples:      len(samples),
		CandidateRMS: core.RMS(cand, val),
		CurrentRMS:   core.RMS(entry.Model, val),
		Train:        tlog.Stats(),
	}
	if res.CandidateRMS <= res.CurrentRMS+s.opts.RetrainTolerance {
		// CompareAndSwap so a concurrent upload beats a stale retrain.
		if e := s.registry.CompareAndSwap(name, "retrain", entry, cand); e != nil {
			res.Swapped = true
			res.Generation = e.Generation
		}
	}
	return s.finishRetrain(res)
}

// finishRetrain records the result in the retrainer counters and logs the
// outcome when a logger is attached.
func (s *Server) finishRetrain(res RetrainResult) (RetrainResult, bool) {
	s.retrainRuns.Inc()
	if res.Swapped {
		s.retrainSwaps.Inc()
	}
	s.retrainMu.Lock()
	if res.Err != "" {
		s.retrainErrs.Inc()
		s.retrainErr = res.Err
	}
	s.lastRetrain = &res
	s.retrainMu.Unlock()
	if s.logger != nil {
		attrs := []slog.Attr{
			slog.String("model", res.Model),
			slog.Int("samples", res.Samples),
			slog.Bool("swapped", res.Swapped),
		}
		if res.Err != "" {
			attrs = append(attrs, slog.String("error", res.Err))
			s.logger.LogAttrs(context.Background(), slog.LevelError, "retrain failed", attrs...)
		} else {
			attrs = append(attrs,
				slog.Float64("candidate_rms", res.CandidateRMS),
				slog.Float64("current_rms", res.CurrentRMS))
			if res.Train != nil {
				attrs = append(attrs, slog.String("train", res.Train.Summary()))
			}
			s.logger.LogAttrs(context.Background(), slog.LevelInfo, "retrain finished", attrs...)
		}
	}
	return res, true
}
