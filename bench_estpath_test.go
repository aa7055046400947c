package selest

// Estimate hot-path benchmarks (DESIGN.md §10): the flat O(m) scan and the
// BVH index at growing bucket counts, the BVH on a sparse model, the
// flat-versus-tree crossover below the indexing threshold, plus end-to-end
// batched /v1/estimate throughput by worker count. scripts/bench.sh folds these into
// BENCH_<n>.json with intra-run speedups (flat kernel, dense BVH and
// single-worker serving as baselines).

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/bvh"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/hist"
	"repro/internal/rng"
	"repro/internal/serve"
)

// estPathModel builds a k×k grid histogram (m = k² buckets) with
// deterministic simplex weights. Training a 16k-bucket model would
// dominate the benchmark run without changing what Estimate measures, so
// the serving model is constructed directly.
func estPathModel(m int) *hist.Model {
	k := int(math.Round(math.Sqrt(float64(m))))
	if k*k != m {
		panic("estPathModel: m must be a perfect square")
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
			weights = append(weights, w)
			total += w
		}
	}
	for i := range weights {
		weights[i] /= total
	}
	return &hist.Model{Buckets: buckets, Weights: weights}
}

// sparseEstPathModel is estPathModel with a fixed 40% of its weights set
// to zero and the rest renormalized, about the share NNLS leaves at zero
// on a trained QUADHIST; the dense grid cannot show what skipping
// zero-weight buckets saves.
func sparseEstPathModel(m int) *hist.Model {
	dense := estPathModel(m)
	weights := make([]float64, m)
	total := 0.0
	for j, w := range dense.Weights {
		if j%5 >= 2 {
			weights[j] = w
			total += w
		}
	}
	for j := range weights {
		weights[j] /= total
	}
	return &hist.Model{Buckets: dense.Buckets, Weights: weights}
}

// estPathQueries returns n deterministic random boxes over [0,1]².
func estPathQueries(n int) []geom.Box {
	r := rng.New(7)
	qs := make([]geom.Box, n)
	for i := range qs {
		c := geom.Point{r.Float64(), r.Float64()}
		qs[i] = geom.BoxFromCenter(c, []float64{0.02 + 0.3*r.Float64(), 0.02 + 0.3*r.Float64()})
	}
	return qs
}

// BenchmarkEstimatePath is the per-query latency of the flat kernel and
// the BVH, on a dense and a sparse model, at each bucket count the
// acceptance criteria name.
func BenchmarkEstimatePath(b *testing.B) {
	queries := estPathQueries(256)
	for _, m := range []int{256, 1024, 4096, 16384} {
		model := estPathModel(m)
		b.Run(fmt.Sprintf("flat/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bvh.EstimateFlat(model.Buckets, model.Weights, queries[i%len(queries)])
			}
		})
		b.Run(fmt.Sprintf("bvh/m=%d", m), func(b *testing.B) {
			core.Accelerate(model) // build outside the timed region
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				model.Estimate(queries[i%len(queries)])
			}
		})
		sparse := sparseEstPathModel(m)
		b.Run(fmt.Sprintf("sparse/m=%d", m), func(b *testing.B) {
			core.Accelerate(sparse)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sparse.Estimate(queries[i%len(queries)])
			}
		})
	}
}

// BenchmarkIndexCrossover sweeps the bucket counts around
// bvh.IndexThreshold, the flat kernel against a tree built regardless of
// the threshold, to find the smallest m at which the walk wins.
func BenchmarkIndexCrossover(b *testing.B) {
	queries := estPathQueries(256)
	for _, m := range []int{16, 25, 36, 49, 64, 81, 100, 144, 196, 256} {
		model := estPathModel(m)
		tree := bvh.Build(model.Buckets, model.Weights)
		b.Run(fmt.Sprintf("flat/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bvh.EstimateFlat(model.Buckets, model.Weights, queries[i%len(queries)])
			}
		})
		b.Run(fmt.Sprintf("bvh/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tree.Estimate(queries[i%len(queries)])
			}
		})
	}
}

// BenchmarkServeEstimateBatch is end-to-end batched /v1/estimate
// throughput by worker count. Reports queries/s alongside ns/op.
func BenchmarkServeEstimateBatch(b *testing.B) {
	model := estPathModel(4096)
	core.Accelerate(model)
	queries := estPathQueries(256)
	var sb strings.Builder
	sb.WriteString(`{"queries":[`)
	for i, q := range queries {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"lo":[%g,%g],"hi":[%g,%g]}`, q.Lo[0], q.Lo[1], q.Hi[0], q.Hi[1])
	}
	sb.WriteString(`]}`)
	body := sb.String()

	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := serve.NewServer(serve.Options{EstimateWorkers: workers})
			s.Registry().Set(serve.DefaultModelName, "bench", model)
			h := s.Handler()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest("POST", "/v1/estimate", strings.NewReader(body))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					b.Fatalf("HTTP %d: %s", w.Code, w.Body.String())
				}
			}
			b.ReportMetric(float64(b.N)*float64(len(queries))/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkServeEstimateStream is end-to-end /v1/estimate/stream
// throughput by worker count: each iteration pushes 256 NDJSON query
// lines through the handler and drains the result lines. Reports
// queries/s alongside ns/op.
func BenchmarkServeEstimateStream(b *testing.B) {
	model := estPathModel(4096)
	core.Accelerate(model)
	queries := estPathQueries(256)
	var sb strings.Builder
	for _, q := range queries {
		fmt.Fprintf(&sb, `{"lo":[%g,%g],"hi":[%g,%g]}`+"\n", q.Lo[0], q.Lo[1], q.Hi[0], q.Hi[1])
	}
	body := sb.String()

	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := serve.NewServer(serve.Options{EstimateWorkers: workers})
			s.Registry().Set(serve.DefaultModelName, "bench", model)
			h := s.Handler()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest("POST", "/v1/estimate/stream", strings.NewReader(body))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					b.Fatalf("HTTP %d: %s", w.Code, w.Body.String())
				}
				if n := strings.Count(w.Body.String(), "\n"); n != len(queries) {
					b.Fatalf("%d result lines, want %d", n, len(queries))
				}
			}
			b.ReportMetric(float64(b.N)*float64(len(queries))/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkServeEstimateAlloc is the steady-state single-estimate path
// the zero-allocation gate (TestEstimateHandlerZeroAlloc) protects:
// one box query per request through the full mux. The allocs/op column
// is the headline number — it must stay at 0.
func BenchmarkServeEstimateAlloc(b *testing.B) {
	model := estPathModel(4096)
	core.Accelerate(model)
	s := serve.NewServer(serve.Options{})
	s.Registry().Set(serve.DefaultModelName, "bench", model)
	h := s.Handler()
	body := `{"query":{"lo":[0.2,0.3],"hi":[0.6,0.7]}}`

	b.Run("single", func(b *testing.B) {
		// Warm the pools outside the measured region, then reuse one
		// request object: httptest.NewRequest per iteration would charge
		// the benchmark for harness allocations the real server never
		// makes per-request.
		req := httptest.NewRequest("POST", "/v1/estimate", nil)
		rd := strings.NewReader(body)
		req.Body = http.NoBody
		w := httptest.NewRecorder()
		run := func() {
			rd.Reset(body)
			req.Body = readCloser{rd}
			req.ContentLength = int64(len(body))
			w.Body.Reset()
			w.Code = http.StatusOK
			h.ServeHTTP(w, req)
		}
		for i := 0; i < 8; i++ {
			run()
			if w.Code != http.StatusOK {
				b.Fatalf("HTTP %d: %s", w.Code, w.Body.String())
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
	})
}

// readCloser adapts a strings.Reader into a no-op-close request body.
type readCloser struct{ *strings.Reader }

func (readCloser) Close() error { return nil }
