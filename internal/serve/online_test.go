package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/hist"
	"repro/internal/modelio"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/rng"
)

// onlineServer builds a server with online updates on, the retrainer
// effectively off (huge interval, driven manually where a test wants it),
// and a trained QuadHist model registered as "default".
func onlineServer(t *testing.T, opts Options) (*Server, core.Model) {
	t.Helper()
	opts.OnlineUpdates = true
	if opts.MinRetrainSamples == 0 {
		opts.MinRetrainSamples = 1 << 30 // never auto-retrain unless asked
	}
	s := NewServer(opts)
	train, _ := fixture(t, 400, 0)
	m := trainModel(t, train)
	s.registry.Set(DefaultModelName, "file", m)
	return s, m
}

// feedbackBody builds a /v1/feedback payload of box observations.
func feedbackBody(t *testing.T, obs []core.LabeledQuery) []byte {
	t.Helper()
	type wobs struct {
		Lo  []float64 `json:"lo"`
		Hi  []float64 `json:"hi"`
		Sel float64   `json:"sel"`
	}
	var req struct {
		Observations []wobs `json:"observations"`
	}
	for _, z := range obs {
		b := z.R.(geom.Box)
		req.Observations = append(req.Observations, wobs{Lo: b.Lo, Hi: b.Hi, Sel: z.Sel})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// feedbackStream generates a deterministic stream of box observations.
func feedbackStream(seed uint64, n int) []core.LabeledQuery {
	r := rng.New(seed)
	out := make([]core.LabeledQuery, n)
	for i := range out {
		lo := geom.Point{r.Float64() * 0.7, r.Float64() * 0.7}
		hi := geom.Point{lo[0] + 0.3*r.Float64(), lo[1] + 0.3*r.Float64()}
		out[i] = core.LabeledQuery{R: geom.Box{Lo: lo, Hi: hi}, Sel: r.Float64()}
	}
	return out
}

// TestOnlineFeedbackPublishes: one feedback observation through the HTTP
// path must bump the generation with source "online" and move the
// estimate toward the observed selectivity.
func TestOnlineFeedbackPublishes(t *testing.T) {
	s, m := onlineServer(t, Options{})
	h := s.Handler()
	q := geom.Box{Lo: geom.Point{0.1, 0.1}, Hi: geom.Point{0.6, 0.6}}
	before := m.Estimate(q)
	target := core.Clamp01(before + 0.2)

	code := doJSON(t, h, http.MethodPost, "/v1/feedback",
		feedbackBody(t, []core.LabeledQuery{{R: q, Sel: target}}), nil)
	if code != http.StatusOK {
		t.Fatalf("feedback status %d", code)
	}
	entry, _ := s.registry.Get(DefaultModelName)
	if entry.Source != "online" || entry.Generation != 2 {
		t.Fatalf("entry source=%q gen=%d, want online/2", entry.Source, entry.Generation)
	}
	after := entry.Model.Estimate(q)
	if math.Abs(after-target) >= math.Abs(before-target) {
		t.Fatalf("online update did not reduce error: before=%v after=%v target=%v", before, after, target)
	}
	if applied, published := s.online.applied.Value(), s.online.published.Value(); applied != 1 || published != 1 {
		t.Fatalf("applied=%d published=%d, want 1/1", applied, published)
	}
	if drift := s.online.drift.Value(); drift <= 0 {
		t.Fatalf("cumulative drift not recorded: %v", drift)
	}
}

// TestOnlineBatchSize: with a batch size of 4, three observations publish
// nothing; the fourth publishes exactly one update folding all four.
func TestOnlineBatchSize(t *testing.T) {
	s, _ := onlineServer(t, Options{OnlineBatchSize: 4})
	stream := feedbackStream(5, 4)
	for i, z := range stream[:3] {
		s.online.ingest(DefaultModelName, []core.LabeledQuery{z})
		if got := s.online.published.Value(); got != 0 {
			t.Fatalf("published %d after %d sub-batch observations", got, i+1)
		}
	}
	s.online.ingest(DefaultModelName, []core.LabeledQuery{stream[3]})
	m := s.online
	if m.published.Value() != 1 || m.applied.Value()+m.skipped.Value() != 4 || len(m.state(DefaultModelName).pending) != 0 {
		t.Fatalf("batch accounting wrong: published=%d applied=%d skipped=%d pending=%d",
			m.published.Value(), m.applied.Value(), m.skipped.Value(), len(m.state(DefaultModelName).pending))
	}
}

// TestOnlineFallbackUnsupported: a model family with no Reweightable
// support routes every observation to the fallback counter and never
// bumps the generation.
func TestOnlineFallbackUnsupported(t *testing.T) {
	s := NewServer(Options{OnlineUpdates: true, MinRetrainSamples: 1 << 30})
	s.registry.Set(DefaultModelName, "file", nonReweightableModel{})
	stream := feedbackStream(6, 5)
	s.online.ingest(DefaultModelName, stream)
	s.online.ingest(DefaultModelName, stream) // second probe must use the cached verdict
	if fallbacks, published := s.online.fallbacks.Value(), s.online.published.Value(); fallbacks != 10 || published != 0 {
		t.Fatalf("fallback accounting wrong: fallbacks=%d published=%d, want 10/0", fallbacks, published)
	}
	entry, _ := s.registry.Get(DefaultModelName)
	if entry.Generation != 1 {
		t.Fatalf("unsupported model was republished: gen %d", entry.Generation)
	}
}

type nonReweightableModel struct{}

func (nonReweightableModel) Estimate(geom.Range) float64 { return 0.5 }
func (nonReweightableModel) NumBuckets() int             { return 1 }

// TestOnlineRebuildAfterSwap: when a retrain/upload swaps the model, the
// next online update must rebuild its updater from the winner instead of
// publishing weights derived from the dead generation.
func TestOnlineRebuildAfterSwap(t *testing.T) {
	s, _ := onlineServer(t, Options{})
	stream := feedbackStream(7, 3)
	s.online.ingest(DefaultModelName, stream[:1])
	gen1, _ := s.registry.Get(DefaultModelName)
	if gen1.Source != "online" {
		t.Fatalf("setup: first update did not publish (source %q)", gen1.Source)
	}

	// An out-of-band upload replaces the model.
	train, _ := fixture(t, 300, 0)
	m2 := trainModel(t, train)
	s.registry.Set(DefaultModelName, "upload", m2)

	s.online.ingest(DefaultModelName, stream[1:2])
	entry, _ := s.registry.Get(DefaultModelName)
	if entry.Source != "online" {
		t.Fatalf("post-swap update did not publish: source %q", entry.Source)
	}
	// The published weights must derive from m2 (shared geometry), not
	// from the pre-upload model.
	hm := entry.Model.(*hist.Model)
	h2 := m2.(*hist.Model)
	if &hm.Buckets[0] != &h2.Buckets[0] {
		t.Fatal("online update after swap did not rebuild from the new model")
	}
}

// TestOnlineServedMatchesDownload: after a few hundred online folds, the
// served model — its index reweighted once per publish — and the same
// model downloaded from GET /v1/models/default and loaded afresh answer 64
// random boxes with the same bits. The trained 2-D QUADHIST is a
// partition the BVH's prefix-mass table serves, and the table is a pure
// function of the buckets and weights, so a publish that patched the
// previous tree's table instead of computing its own would show here.
func TestOnlineServedMatchesDownload(t *testing.T) {
	s, _ := onlineServer(t, Options{})
	for _, z := range feedbackStream(2203, 300) {
		s.online.ingest(DefaultModelName, []core.LabeledQuery{z})
	}
	entry, _ := s.registry.Get(DefaultModelName)
	if entry.Source != "online" || entry.Generation < 100 {
		t.Fatalf("entry source=%q gen=%d, want a few hundred online publishes", entry.Source, entry.Generation)
	}
	served := entry.Model.(*hist.Model)
	if served.IndexTree() == nil {
		t.Fatal("served model carries no index")
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/models/default", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("download: HTTP %d", w.Code)
	}
	loaded, err := modelio.LoadAny(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2204)
	for qi := 0; qi < 64; qi++ {
		lo := geom.Point{r.Float64() * 0.8, r.Float64() * 0.8}
		q := geom.Box{Lo: lo, Hi: geom.Point{lo[0] + 0.4*r.Float64(), lo[1] + 0.4*r.Float64()}}
		if a, b := served.Estimate(q), loaded.Estimate(q); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("query %d %v: served %v (%#x), downloaded %v (%#x)",
				qi, q, a, math.Float64bits(a), b, math.Float64bits(b))
		}
	}
}

// TestOnlineDeterminism (verify.sh runs this as the seeded determinism
// self-check): the same feedback stream must yield byte-identical final
// weights with and without concurrent estimate traffic — estimates never
// perturb updater state, and updates serialize per model.
func TestOnlineDeterminism(t *testing.T) {
	stream := feedbackStream(1701, 400)
	finalWeights := func(hammer bool) []float64 {
		s, _ := onlineServer(t, Options{})
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if hammer {
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					r := rng.New(uint64(1000 + g))
					for {
						select {
						case <-stop:
							return
						default:
						}
						entry, _ := s.registry.Get(DefaultModelName)
						lo := geom.Point{r.Float64() * 0.5, r.Float64() * 0.5}
						hi := geom.Point{lo[0] + 0.4, lo[1] + 0.4}
						entry.Model.Estimate(geom.Box{Lo: lo, Hi: hi})
					}
				}(g)
			}
		}
		for _, z := range stream {
			s.online.ingest(DefaultModelName, []core.LabeledQuery{z})
		}
		close(stop)
		wg.Wait()
		entry, _ := s.registry.Get(DefaultModelName)
		return entry.Model.(*hist.Model).Weights
	}
	base := finalWeights(false)
	for run := 0; run < 3; run++ {
		got := finalWeights(true)
		if len(got) != len(base) {
			t.Fatalf("weight count changed: %d vs %d", len(got), len(base))
		}
		for j := range got {
			if got[j] != base[j] {
				t.Fatalf("hammered run %d: weight %d not byte-identical: %v vs %v",
					run, j, got[j], base[j])
			}
		}
	}
}

// TestOnlineCOWRace is the torn-state test for the copy-on-write publish
// path: concurrent estimate readers, online updates, and full retrain
// hot-swaps. Run under -race (verify.sh does). Every estimate must come
// from some consistently-published model — in [0,1] with the model's
// weights a valid distribution — and nothing may panic or race.
func TestOnlineCOWRace(t *testing.T) {
	train, _ := fixture(t, 400, 0)
	s, _ := onlineServer(t, Options{MinRetrainSamples: 8})
	// Give the retrainer material so RetrainNow genuinely swaps.
	s.feedback.Add(DefaultModelName, train[:64])

	const estimators = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, estimators)
	for g := 0; g < estimators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(2000 + g))
			for {
				select {
				case <-stop:
					return
				default:
				}
				entry, ok := s.registry.Get(DefaultModelName)
				if !ok {
					continue
				}
				lo := geom.Point{r.Float64() * 0.6, r.Float64() * 0.6}
				hi := geom.Point{lo[0] + 0.4*r.Float64(), lo[1] + 0.4*r.Float64()}
				est := entry.Model.Estimate(geom.Box{Lo: lo, Hi: hi})
				if est < 0 || est > 1 || math.IsNaN(est) {
					select {
					case errc <- fmt.Errorf("estimate out of range: %v (gen %d, source %s)", est, entry.Generation, entry.Source):
					default:
					}
					return
				}
			}
		}(g)
	}

	// Two writers race: online updates and retrain hot-swaps. Readers run
	// until both writers have drained their streams.
	var writers sync.WaitGroup
	writers.Add(2)
	go func() {
		defer writers.Done()
		for _, z := range feedbackStream(3000, 300) {
			s.online.ingest(DefaultModelName, []core.LabeledQuery{z})
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; i < 6; i++ {
			s.RetrainNow()
			s.feedback.Add(DefaultModelName, train[64+8*i:64+8*(i+1)])
		}
	}()
	writers.Wait()
	close(stop)
	wg.Wait()

	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	// Final published weights must be a valid distribution.
	entry, _ := s.registry.Get(DefaultModelName)
	hm := entry.Model.(*hist.Model)
	sumW := 0.0
	for j, w := range hm.Weights {
		if w < 0 || math.IsNaN(w) {
			t.Fatalf("final weight %d invalid: %v", j, w)
		}
		sumW += w
	}
	if math.Abs(sumW-1) > 0.05 {
		t.Fatalf("final weights not near-simplex: sum %v", sumW)
	}
	if s.online.published.Value() == 0 {
		t.Fatal("race test published nothing")
	}
}

// TestOnlineRuleOption: Options.OnlineRule must reach the updater, checked
// by the rules' effect. The multiplicative rule scales weights, so a
// zero-weight bucket stays zero; the gradient rule re-grows some.
func TestOnlineRuleOption(t *testing.T) {
	regrown := func(rule online.Rule) int {
		s, m := onlineServer(t, Options{OnlineRule: rule, OnlineRate: 0.3})
		s.online.ingest(DefaultModelName, feedbackStream(8, 10))
		if s.online.published.Value() == 0 {
			t.Fatalf("%v rule published nothing", rule)
		}
		entry, _ := s.registry.Get(DefaultModelName)
		before, after := m.(*hist.Model).Weights, entry.Model.(*hist.Model).Weights
		zeros, n := 0, 0
		for j, w := range before {
			if w == 0 {
				zeros++
				if after[j] != 0 {
					n++
				}
			}
		}
		if zeros == 0 {
			t.Fatal("fixture model has no zero weights")
		}
		return n
	}
	if n := regrown(online.RuleMultiplicative); n != 0 {
		t.Fatalf("multiplicative rule re-grew %d zero-weight buckets, want 0", n)
	}
	if n := regrown(online.RuleGradient); n == 0 {
		t.Fatal("gradient rule re-grew no zero-weight bucket")
	}
}

// TestRingLostAccounting: drop counts every overwrite; lost counts only
// overwrites of observations no snapshot ever read.
func TestRingLostAccounting(t *testing.T) {
	r := newRing(3)
	q := func(sel float64) core.LabeledQuery {
		return core.LabeledQuery{R: geom.UnitCube(1), Sel: sel}
	}
	for i := 0; i < 3; i++ {
		r.add(q(float64(i)))
	}
	// Overwrite before any snapshot: a real loss.
	r.add(q(3))
	if r.drop != 1 || r.lost != 1 {
		t.Fatalf("pre-snapshot overwrite: drop=%d lost=%d, want 1/1", r.drop, r.lost)
	}
	// A snapshot consumes everything buffered...
	if got := len(r.snapshot()); got != 3 {
		t.Fatalf("snapshot size %d", got)
	}
	// ...so the next three overwrites displace seen observations: dropped
	// but not lost.
	for i := 4; i < 7; i++ {
		r.add(q(float64(i)))
	}
	if r.drop != 4 || r.lost != 1 {
		t.Fatalf("post-snapshot overwrites: drop=%d lost=%d, want 4/1", r.drop, r.lost)
	}
	// The fourth overwrite displaces an unseen observation again.
	r.add(q(7))
	if r.drop != 5 || r.lost != 2 {
		t.Fatalf("second loss: drop=%d lost=%d, want 5/2", r.drop, r.lost)
	}
	// Store-level totals.
	fs := newFeedbackStore(2)
	fs.Add("m", []core.LabeledQuery{q(0), q(1), q(2)})
	total, dropped, lost := fs.Totals()
	if total != 3 || dropped != 1 || lost != 1 {
		t.Fatalf("Totals = %d/%d/%d, want 3/1/1", total, dropped, lost)
	}
}

// TestMetricsOnlineFamilies: /metrics carries the selserve_online_
// families when the subsystem is enabled and none otherwise.
func TestMetricsOnlineFamilies(t *testing.T) {
	s, _ := onlineServer(t, Options{})
	s.online.ingest(DefaultModelName, feedbackStream(9, 3))
	h := s.Handler()
	if n := metricValue(t, h, "selserve_online_applied_total") + metricValue(t, h, "selserve_online_skipped_total"); n != 3 {
		t.Fatalf("online applied+skipped = %v, want 3", n)
	}

	w := httptest.NewRecorder()
	NewServer(Options{}).Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if strings.Contains(w.Body.String(), "selserve_online_") {
		t.Fatal("/metrics has selserve_online_ series with the subsystem disabled")
	}
}

// TestOnlineUpdateBucketsShowTwentyPercent: folds ×1.25 and ×1.2 apart,
// at a millisecond and in the tens of microseconds, read different
// medians. 1.05 ms and 1.26 ms, and 21 µs and 25.2 µs, each share one
// bucket of a four-per-decade layout.
func TestOnlineUpdateBucketsShowTwentyPercent(t *testing.T) {
	median := func(v float64) float64 {
		h := obs.NewHistogram(onlineUpdateBuckets)
		h.Observe(v)
		return h.Snapshot().Quantile(0.5)
	}
	for _, pair := range [][2]float64{{1.00e-3, 1.25e-3}, {1.05e-3, 1.26e-3}, {21e-6, 25.2e-6}} {
		if a, b := median(pair[0]), median(pair[1]); a == b {
			t.Errorf("%g s and %g s both read median %g s", pair[0], pair[1], a)
		}
	}
}
