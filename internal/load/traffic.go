package load

import (
	"bytes"
	"fmt"
	"math"
	"strconv"

	"repro/internal/geom"
	"repro/internal/hist"
	"repro/internal/modelio"
	"repro/internal/rng"
	"repro/internal/wirebin"
)

// Per-class payload sizes. They are constants, not knobs: the mix weights
// control how much of each class the schedule carries, and keeping the
// per-event shape fixed keeps one event's cost comparable across runs.
const (
	// Dim is the dimensionality of every generated query (and of the
	// synthetic serving models).
	Dim = 2
	// BatchQueries is the query count of one ClassBatch request.
	BatchQueries = 16
	// StreamQueries is the query count of one ClassStream request.
	StreamQueries = 64
	// FeedbackObs is the observation count of one ClassFeedback upload.
	FeedbackObs = 8
	// SwapBuckets is the bucket count of hot-swap model envelopes — small
	// enough that building and indexing one is microseconds of server
	// work, large enough to exercise the publish path for real.
	SwapBuckets = 256
)

// GridModel builds a k×k grid histogram (m = k² buckets, m a perfect
// square) over the unit box with deterministic simplex weights. Seed 0
// reproduces the exact weight pattern of BenchmarkEstimatePath's grid; a
// nonzero seed perturbs the weights multiplicatively, so hot-swapped
// models are genuinely different without changing shape.
func GridModel(m int, seed uint64) *hist.Model {
	k := int(math.Round(math.Sqrt(float64(m))))
	if k*k != m {
		panic("load: GridModel needs a perfect-square bucket count")
	}
	var r *rng.RNG
	if seed != 0 {
		r = rng.New(seed)
	}
	buckets := make([]geom.Box, 0, m)
	weights := make([]float64, 0, m)
	total := 0.0
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			buckets = append(buckets, geom.NewBox(
				geom.Point{float64(i) / float64(k), float64(j) / float64(k)},
				geom.Point{float64(i+1) / float64(k), float64(j+1) / float64(k)},
			))
			w := float64((i*31+j*17)%97 + 1)
			if r != nil {
				w *= 1 + 0.5*r.Float64()
			}
			weights = append(weights, w)
			total += w
		}
	}
	for i := range weights {
		weights[i] /= total
	}
	return &hist.Model{Buckets: buckets, Weights: weights}
}

// boxQueries draws n random 2-D box queries from r: centers uniform in
// the unit square, sides in [0.02, 0.32) — the workload-query shape the
// estimate-path benchmarks have used since DESIGN.md §10.
func boxQueries(r *rng.RNG, n int) []geom.Range {
	qs := make([]geom.Range, n)
	for i := range qs {
		c := geom.Point{r.Float64(), r.Float64()}
		qs[i] = geom.BoxFromCenter(c, []float64{0.02 + 0.3*r.Float64(), 0.02 + 0.3*r.Float64()})
	}
	return qs
}

// eventQueryCount is the number of queries one event of the class sends.
func eventQueryCount(c Class) int {
	switch c {
	case ClassBatch:
		return BatchQueries
	case ClassStream:
		return StreamQueries
	case ClassSingle, ClassBin:
		return 1
	default:
		return 0
	}
}

// EventQueries derives the event's query set from its seed. Pure: the
// same event always yields the same queries, on any worker.
func EventQueries(ev Event) []geom.Range {
	return boxQueries(rng.New(ev.Seed), eventQueryCount(ev.Class))
}

// EventFeedback derives a ClassFeedback event's labeled observations:
// seeded queries with seeded selectivity labels in [0,1).
func EventFeedback(ev Event) (ranges []geom.Range, sels []float64) {
	r := rng.New(ev.Seed)
	ranges = boxQueries(r, FeedbackObs)
	sels = make([]float64, len(ranges))
	for i := range sels {
		sels[i] = r.Float64()
	}
	return ranges, sels
}

// SwapModel builds the event's hot-swap candidate: the standard grid with
// seed-perturbed weights, so every swap publishes a model the server has
// never seen.
func SwapModel(ev Event) *hist.Model {
	// Seed 0 would mean "no perturbation"; shift into a derived stream so
	// every event perturbs.
	return GridModel(SwapBuckets, ev.Seed|1)
}

// ---- wire bodies ----------------------------------------------------------

// AppendFloats appends a JSON array of floats in shortest-round-trip form
// (the same bytes encoding/json would produce).
func AppendFloats(dst []byte, p []float64) []byte {
	dst = append(dst, '[')
	for i, v := range p {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	return append(dst, ']')
}

// appendBoxJSON appends `{"lo":[...],"hi":[...]}` for a box query.
func appendBoxJSON(dst []byte, q geom.Range) []byte {
	box := q.(geom.Box)
	dst = append(dst, `{"lo":`...)
	dst = AppendFloats(dst, box.Lo)
	dst = append(dst, `,"hi":`...)
	dst = AppendFloats(dst, box.Hi)
	return append(dst, '}')
}

// appendModelField appends `"model":"name",` when name is nonempty (the
// server defaults the empty name).
func appendModelField(dst []byte, model string) []byte {
	if model == "" {
		return dst
	}
	dst = append(dst, `"model":`...)
	dst = strconv.AppendQuote(dst, model)
	return append(dst, ',')
}

// SingleBody renders a one-query /v1/estimate request.
func SingleBody(model string, q geom.Range) []byte {
	dst := append([]byte(nil), '{')
	dst = appendModelField(dst, model)
	dst = append(dst, `"query":`...)
	dst = appendBoxJSON(dst, q)
	return append(dst, '}')
}

// BatchBody renders a batched /v1/estimate request.
func BatchBody(model string, qs []geom.Range) []byte {
	dst := append([]byte(nil), '{')
	dst = appendModelField(dst, model)
	dst = append(dst, `"queries":[`...)
	for i, q := range qs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendBoxJSON(dst, q)
	}
	return append(dst, `]}`...)
}

// StreamBody renders queries as NDJSON for /v1/estimate/stream (the model
// is chosen per connection via ?model=, not in the body).
func StreamBody(qs []geom.Range) []byte {
	var dst []byte
	for _, q := range qs {
		dst = appendBoxJSON(dst, q)
		dst = append(dst, '\n')
	}
	return dst
}

// FeedbackBody renders a /v1/feedback upload; sels[i] labels qs[i].
func FeedbackBody(model string, qs []geom.Range, sels []float64) []byte {
	dst := append([]byte(nil), '{')
	dst = appendModelField(dst, model)
	dst = append(dst, `"observations":[`...)
	for i, q := range qs {
		if i > 0 {
			dst = append(dst, ',')
		}
		box := q.(geom.Box)
		dst = append(dst, `{"lo":`...)
		dst = AppendFloats(dst, box.Lo)
		dst = append(dst, `,"hi":`...)
		dst = AppendFloats(dst, box.Hi)
		dst = append(dst, `,"sel":`...)
		dst = strconv.AppendFloat(dst, sels[i], 'g', -1, 64)
		dst = append(dst, '}')
	}
	return append(dst, `]}`...)
}

// SwapBody renders the event's hot-swap model envelope (the PUT body).
func SwapBody(ev Event) ([]byte, error) {
	var buf bytes.Buffer
	if err := modelio.Save(&buf, SwapModel(ev)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// EventPayload returns the canonical request bytes an event sends: the
// HTTP body for JSON classes, the wire frame for the binary class, the
// model envelope for hot-swaps. Pure per event — the determinism tests
// diff these bytes across worker counts.
func EventPayload(ev Event, model string) ([]byte, error) {
	switch ev.Class {
	case ClassSingle:
		return SingleBody(model, EventQueries(ev)[0]), nil
	case ClassBatch:
		return BatchBody(model, EventQueries(ev)), nil
	case ClassStream:
		return StreamBody(EventQueries(ev)), nil
	case ClassBin:
		var name []byte
		if model != "" {
			name = []byte(model)
		}
		return wirebin.AppendEstimateReq(nil, name, EventQueries(ev)[0])
	case ClassFeedback:
		qs, sels := EventFeedback(ev)
		return FeedbackBody(model, qs, sels), nil
	case ClassSwap:
		return SwapBody(ev)
	}
	return nil, fmt.Errorf("load: event %d has unknown class %d", ev.Index, ev.Class)
}
