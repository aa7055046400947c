package serve

import (
	"bufio"
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/hist"
	"repro/internal/wirebin"
)

// benchGridModel mirrors the root package's estPathModel: a k×k grid
// histogram with deterministic simplex weights, so the in-process frame
// benchmark below serves the same model as BenchmarkServeEstimateAlloc
// and the two rows are directly comparable.
func benchGridModel(m int) *hist.Model {
	k := int(math.Round(math.Sqrt(float64(m))))
	if k*k != m {
		panic("benchGridModel: m must be a perfect square")
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

// BenchmarkBinFrame is the binary analogue of BenchmarkServeEstimateAlloc:
// the full server-side cost of one estimate frame — frame read, decode,
// registry lookup, estimate through the shared kernel, response encode —
// measured in-process so the comparison against serve_alloc_single (the
// in-process HTTP JSON handler) excludes loopback kernel time both arms
// would pay identically. Same 4096-bucket model.
func BenchmarkBinFrame(b *testing.B) {
	model := benchGridModel(4096)
	core.Accelerate(model)
	s := NewServer(Options{})
	s.Registry().Set(DefaultModelName, "bench", model)

	q := geom.NewBox(geom.Point{0.2, 0.3}, geom.Point{0.6, 0.7})
	frame, err := wirebin.AppendEstimateReq(nil, nil, q)
	if err != nil {
		b.Fatal(err)
	}

	st := binStatePool.Get().(*binState)
	st.sc = scratchPool.Get().(*estimateScratch)
	defer func() {
		scratchPool.Put(st.sc)
		st.sc = nil
		binStatePool.Put(st)
	}()

	rd := bytes.NewReader(frame)
	br := bufio.NewReaderSize(rd, 1<<16)

	b.Run("single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rd.Reset(frame)
			br.Reset(rd)
			typ, payload, err := wirebin.ReadFrame(br, &st.frame)
			if err != nil {
				b.Fatal(err)
			}
			st.out = st.out[:0]
			s.processBinFrame(st, typ, payload)
			if st.out[4] != wirebin.FrameEstimateResp {
				b.Fatalf("frame answered with %#x", st.out[4])
			}
		}
	})
}
