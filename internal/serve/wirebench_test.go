package serve

import (
	"bytes"
	"testing"

	"repro/internal/geom"
	"repro/internal/load"
)

// Per-layer benchmarks of the JSON codec: decode (body bytes to ranges in
// the scratch arenas) and encode (estimates to response bytes), apart
// from the mux, the model and the kernel. The bodies are rendered by
// internal/load, so the numbers have the shortest 'g' form the load
// harness and the serving benchmark send. With -benchmem every arm reads
// 0 allocs/op once the scratch arenas have grown; a -benchtime 1x pass
// counts that first growth.

// wireBenchQueries returns the queries of one load event of class c.
func wireBenchQueries(c load.Class) []geom.Range {
	return load.EventQueries(load.Event{Class: c, Seed: 42})
}

func BenchmarkWireDecode(b *testing.B) {
	sc := new(estimateScratch)
	request := func(name string, body []byte, want int) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc.body = body
				sc.resetWire()
				if _, _, err := parseEstimateRequest(sc); err != nil || len(sc.ranges) != want {
					b.Fatalf("parse: %v, %d ranges", err, len(sc.ranges))
				}
			}
		})
	}
	request("single", load.SingleBody("", wireBenchQueries(load.ClassSingle)[0]), 1)
	request("batch16", load.BatchBody("", wireBenchQueries(load.ClassBatch)), load.BatchQueries)

	// The stream parses each line as the handler does.
	body := load.StreamBody(wireBenchQueries(load.ClassStream))
	b.Run("stream64", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		var qp queryParts
		for i := 0; i < b.N; i++ {
			sc.resetWire()
			for rest := body; len(rest) > 0; {
				n := bytes.IndexByte(rest, '\n') + 1
				p := wireParser{b: rest[:n], sc: sc}
				if err := p.parseLine(&qp); err != nil {
					b.Fatal(err)
				}
				rest = rest[n:]
			}
			if len(sc.ranges) != load.StreamQueries {
				b.Fatalf("%d ranges", len(sc.ranges))
			}
		}
	})
}

func BenchmarkWireEncode(b *testing.B) {
	m := load.GridModel(1024, 0)
	e := &Entry{Model: m, Generation: 7, name: DefaultModelName, dim: load.Dim}
	estimates := func(qs []geom.Range) []float64 {
		ests := make([]float64, len(qs))
		for i, q := range qs {
			ests[i] = m.Estimate(q)
		}
		return ests
	}
	var out []byte

	batch := estimates(wireBenchQueries(load.ClassBatch))
	b.Run("batch16", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out = appendEstimateResponse(out[:0], defaultModelBytes, e.Generation, batch, false)
		}
	})

	qs := wireBenchQueries(load.ClassStream)
	stream := estimates(qs)
	sc := &estimateScratch{ranges: qs, qerrs: make([]error, len(qs))}
	b.Run("stream64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out = appendStreamLines(out[:0], sc, stream, 0, e)
		}
	})
}
