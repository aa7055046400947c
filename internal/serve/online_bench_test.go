package serve

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/hist"
	"repro/internal/rng"
	"repro/internal/workload"
)

// benchOnlineServer builds an online-enabled server with a trained model,
// outside the timed region.
func benchOnlineServer(b *testing.B, nBuckets int) *Server {
	b.Helper()
	ds := dataset.Power(3000, 1).Project([]int{0, 1})
	g := workload.NewGenerator(ds, 11)
	spec := workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}
	train, _ := g.TrainTest(spec, 400, 0)
	m, err := hist.New(2, nBuckets).Train(train)
	if err != nil {
		b.Fatal(err)
	}
	s := NewServer(Options{
		OnlineUpdates:     true,
		MinRetrainSamples: 1 << 30, // retrainer driven never
	})
	s.registry.Set(DefaultModelName, "file", m)
	return s
}

// BenchmarkOnlineUpdate measures the feedback-to-published-model latency
// of one online update (fold + COW reweight + registry CAS) while
// concurrent estimate traffic reads the registry — the ISSUE target is
// p99 under 100µs per feedback item. Per-item wall times are collected
// and the p50/p99 reported as custom metrics alongside ns/op.
func BenchmarkOnlineUpdate(b *testing.B) {
	for _, nBuckets := range []int{200, 512} {
		b.Run(fmt.Sprintf("buckets=%d", nBuckets), func(b *testing.B) {
			s := benchOnlineServer(b, nBuckets)

			// Concurrent estimate traffic for the whole timed region.
			stop := make(chan struct{})
			defer close(stop)
			for g := 0; g < 4; g++ {
				go func(g int) {
					r := rng.New(uint64(100 + g))
					for {
						select {
						case <-stop:
							return
						default:
						}
						entry, _ := s.registry.Get(DefaultModelName)
						lo := geom.Point{r.Float64() * 0.6, r.Float64() * 0.6}
						hi := geom.Point{lo[0] + 0.4, lo[1] + 0.4}
						entry.Model.Estimate(geom.Box{Lo: lo, Hi: hi})
					}
				}(g)
			}

			r := rng.New(7)
			stream := make([]core.LabeledQuery, b.N)
			for i := range stream {
				lo := geom.Point{r.Float64() * 0.7, r.Float64() * 0.7}
				hi := geom.Point{lo[0] + 0.3*r.Float64(), lo[1] + 0.3*r.Float64()}
				stream[i] = core.LabeledQuery{R: geom.Box{Lo: lo, Hi: hi}, Sel: r.Float64()}
			}
			lat := make([]time.Duration, b.N)
			batch := make([]core.LabeledQuery, 1)

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch[0] = stream[i]
				start := time.Now()
				s.online.ingest(DefaultModelName, batch)
				lat[i] = time.Since(start)
			}
			b.StopTimer()

			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			quant := func(q float64) float64 {
				idx := int(q * float64(len(lat)-1))
				return float64(lat[idx].Nanoseconds()) / 1e3
			}
			b.ReportMetric(quant(0.50), "p50-µs")
			b.ReportMetric(quant(0.99), "p99-µs")
			if s.online.published.Value() == 0 {
				b.Fatal("benchmark published nothing")
			}
		})
	}
}
