package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/modelio"
	"repro/internal/serve"
)

// The in-process layer timings call one layer's public functions on the
// workload's own inputs, outside any measured phase.

// kernelNSPerQuery times core.EstimateRangesInto with one worker over the
// query stream; the median of three passes.
func kernelNSPerQuery(m core.Model, qs []geom.Range) float64 {
	out := make([]float64, len(qs))
	var runs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		core.EstimateRangesInto(m, qs, 1, out)
		runs = append(runs, float64(time.Since(t0).Nanoseconds())/float64(len(qs)))
	}
	return median(runs)
}

// cacheLookupNS times serve.QueryKey plus EstimateCache.Get over the query
// stream against a cache of the server's default size, replaying the
// stream's misses as Puts (untimed) so the hit pattern follows the stream.
func cacheLookupNS(qs []geom.Range) float64 {
	const chunk = 256
	c := serve.NewEstimateCache(4096)
	keys := make([]string, 0, chunk)
	var spent time.Duration
	for lo := 0; lo < len(qs); lo += chunk {
		hi := min(lo+chunk, len(qs))
		keys = keys[:0]
		t0 := time.Now()
		for _, q := range qs[lo:hi] {
			k, _ := serve.QueryKey(q)
			if _, hit := c.Get("default", 1, k); !hit {
				keys = append(keys, k)
			}
		}
		spent += time.Since(t0)
		for _, k := range keys {
			c.Put("default", 1, k, 0)
		}
	}
	return float64(spent.Nanoseconds()) / float64(len(qs))
}

// repeatShare is the share of queries that repeat an earlier query of the
// stream, by canonical key.
func repeatShare(qs []geom.Range) float64 {
	seen := make(map[string]bool, len(qs))
	rep := 0
	for _, q := range qs {
		k, _ := serve.QueryKey(q)
		if seen[k] {
			rep++
		}
		seen[k] = true
	}
	return float64(rep) / float64(len(qs))
}

// snapshotLoadMS times modelio.LoadAnyBytes plus core.Accelerate on a
// snapshot, the work a hot-swap PUT does; the median of five loads.
func snapshotLoadMS(snap []byte) (float64, error) {
	var runs []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		m, err := modelio.LoadAnyBytes(snap)
		if err != nil {
			return 0, err
		}
		core.Accelerate(m)
		runs = append(runs, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(runs), nil
}
