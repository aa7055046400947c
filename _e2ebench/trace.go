package main

import (
	"encoding/json"
	"sync"
	"time"
)

// The server keeps its spans in a 4096-entry ring exported at GET
// /debug/trace. The collector fetches the ring often enough that it never
// wraps between fetches and merges the fetches by span ID, so the trace
// covers the whole traced pass.
const traceFetchEvery = 200 * time.Millisecond

type traceEvent struct {
	Name string  `json:"name"`
	Dur  float64 `json:"dur"` // µs
	Args struct {
		Span   uint64 `json:"span"`
		Parent uint64 `json:"parent"`
		Items  int64  `json:"items"`
	} `json:"args"`
}

type traceCollector struct {
	srv   *server
	mu    sync.Mutex
	spans map[uint64]traceEvent
	stop  chan struct{}
	done  chan struct{}
}

func startTraceCollector(srv *server) *traceCollector {
	tc := &traceCollector{srv: srv, spans: make(map[uint64]traceEvent), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(tc.done)
		t := time.NewTicker(traceFetchEvery)
		defer t.Stop()
		for {
			select {
			case <-tc.stop:
				return
			case <-t.C:
				tc.fetch()
			}
		}
	}()
	return tc
}

func (tc *traceCollector) fetch() {
	b, err := tc.srv.get("/debug/trace")
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err == nil {
		err = json.Unmarshal(b, &doc)
	}
	if err != nil {
		return // a missed fetch shows as lost coverage (obs.trace_coverage)
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for _, ev := range doc.TraceEvents {
		tc.spans[ev.Args.Span] = ev
	}
}

// finish stops the collector, takes a last fetch and analyses the spans.
func (tc *traceCollector) finish() *traceResult {
	close(tc.stop)
	<-tc.done
	tc.fetch()
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return analyseTrace(tc.spans)
}

// traceResult is the per-layer view of a traced pass.
type traceResult struct {
	selfUS   map[string]float64 // mean self time per span name
	singleUS []float64          // handler span durations of one-query JSON estimates
	batchUS  []float64          // … of batch JSON estimates
}

// analyseTrace computes each span's self time — its duration minus the
// time its children cover — and splits the JSON estimate route by request
// size, read from its children: cache hits plus kernel misses.
func analyseTrace(spans map[uint64]traceEvent) *traceResult {
	childDur := make(map[uint64]float64)
	size := make(map[uint64]int64)
	for _, ev := range spans {
		if ev.Args.Parent == 0 {
			continue
		}
		childDur[ev.Args.Parent] += ev.Dur
		if ev.Name == "serve.cache_lookup" || ev.Name == "core.estimate_ranges" {
			size[ev.Args.Parent] += ev.Args.Items
		}
	}
	sum := make(map[string]float64)
	n := make(map[string]int)
	tr := &traceResult{selfUS: make(map[string]float64)}
	for id, ev := range spans {
		self := ev.Dur - childDur[id]
		if self < 0 {
			self = 0
		}
		sum[ev.Name] += self
		n[ev.Name]++
		if ev.Name == "http POST /v1/estimate" {
			switch size[id] {
			case 1:
				tr.singleUS = append(tr.singleUS, ev.Dur)
			case batchQueries:
				tr.batchUS = append(tr.batchUS, ev.Dur)
			}
		}
	}
	for name, s := range sum {
		tr.selfUS[name] = s / float64(n[name])
	}
	return tr
}
