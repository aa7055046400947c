package load

import (
	"fmt"
	"io"

	"repro/internal/obs"
)

// LoadLatencyBuckets is the client-side latency layout: 1µs to 100s at
// nine buckets per decade (~29% bucket width). Finer than the server's
// obs.LatencyBuckets because the harness reports p999 — at four buckets
// per decade a p999 estimate can be off by a third, which is the
// difference between passing and failing a 1ms SLO.
var LoadLatencyBuckets = obs.ExpBuckets(1e-6, 1e2, 9)

// ClassStats holds one traffic class's metric handles. Two histograms per
// class is the whole point of the harness:
//
//   - Intended: completion − scheduled start. Includes every microsecond a
//     request spent waiting behind a backlog, so coordinated omission
//     cannot hide a stall. This is the distribution SLOs are judged on.
//   - Actual: completion − send. The service-time view; diverging from
//     Intended means the client could not keep up with its own schedule
//     (saturation, either side).
type ClassStats struct {
	Sent     *obs.Counter
	Errors   *obs.Counter
	Intended *obs.Histogram // seconds since intended (scheduled) start
	Actual   *obs.Histogram // seconds since actual send
}

// Collector owns the per-class client metrics of one run, backed by an
// obs.Registry so the same numbers can render as a table, a JSON report,
// or a Prometheus page.
type Collector struct {
	reg     *obs.Registry
	classes [NumClasses]ClassStats
}

// NewCollector registers the per-class series in a fresh registry.
func NewCollector() *Collector {
	c := &Collector{reg: obs.NewRegistry()}
	for i := Class(0); i < NumClasses; i++ {
		cl := obs.Label{Key: "class", Value: i.String()}
		c.classes[i] = ClassStats{
			Sent: c.reg.Counter("selload_requests_total",
				"Load-harness requests sent, by traffic class.", cl),
			Errors: c.reg.Counter("selload_errors_total",
				"Load-harness requests that failed, by traffic class.", cl),
			Intended: c.reg.Histogram("selload_intended_latency_seconds",
				"Completion minus intended (scheduled) start, by traffic class.",
				LoadLatencyBuckets, cl),
			Actual: c.reg.Histogram("selload_actual_latency_seconds",
				"Completion minus actual send, by traffic class.",
				LoadLatencyBuckets, cl),
		}
	}
	return c
}

// Class returns the handles for one traffic class.
func (c *Collector) Class(cl Class) *ClassStats { return &c.classes[cl] }

// Registry exposes the backing registry (tests render it as exposition).
func (c *Collector) Registry() *obs.Registry { return c.reg }

// TotalSent and TotalErrors sum across classes.
func (c *Collector) TotalSent() int64 {
	var n int64
	for i := range c.classes {
		n += c.classes[i].Sent.Value()
	}
	return n
}

func (c *Collector) TotalErrors() int64 {
	var n int64
	for i := range c.classes {
		n += c.classes[i].Errors.Value()
	}
	return n
}

// LatencySummary is the quantile digest of one histogram, in
// microseconds (the regime serving latencies live in).
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`
	MaxUs  float64 `json:"max_us"`
}

// Summarize digests a histogram snapshot.
func Summarize(s obs.HistogramSnapshot) LatencySummary {
	const toUs = 1e6
	if s.Count == 0 {
		return LatencySummary{}
	}
	return LatencySummary{
		Count:  s.Count,
		MeanUs: s.Mean() * toUs,
		P50Us:  s.Quantile(0.50) * toUs,
		P99Us:  s.Quantile(0.99) * toUs,
		P999Us: s.Quantile(0.999) * toUs,
		MaxUs:  s.Max * toUs,
	}
}

// ---- shared text reporter -------------------------------------------------

// Reporter renders cmd/selload's latency tables in one fixed format.
// Given the same histogram contents it always produces the same bytes
// (histograms are order-independent, so concurrent fills at any worker
// count render identically — test-gated), which is what makes two runs'
// tables diffable.
type Reporter struct {
	w   io.Writer
	err error
}

// NewReporter writes tables to w.
func NewReporter(w io.Writer) *Reporter { return &Reporter{w: w} }

func (r *Reporter) printf(format string, args ...any) {
	if r.err != nil {
		return
	}
	_, r.err = fmt.Fprintf(r.w, format, args...)
}

// Err returns the first write error.
func (r *Reporter) Err() error { return r.err }

// Titlef prints a table title line.
func (r *Reporter) Titlef(format string, args ...any) {
	r.printf(format+"\n", args...)
}

// ClassTable prints the collector's per-class intended/actual digests:
// one row per populated (class, view) pair, classes in enum order.
func (r *Reporter) ClassTable(c *Collector) {
	r.printf("%10s %9s %10s %8s %10s %10s %10s %10s %12s\n",
		"class", "view", "ops", "errors", "mean_us", "p50_us", "p99_us", "p999_us", "max_us")
	for i := Class(0); i < NumClasses; i++ {
		cs := c.Class(i)
		if cs.Sent.Value() == 0 {
			continue
		}
		for _, view := range []struct {
			name string
			h    *obs.Histogram
		}{{"intended", cs.Intended}, {"actual", cs.Actual}} {
			s := Summarize(view.h.Snapshot())
			r.printf("%10s %9s %10d %8d %10.1f %10.1f %10.1f %10.1f %12.1f\n",
				i.String(), view.name, cs.Sent.Value(), cs.Errors.Value(),
				s.MeanUs, s.P50Us, s.P99Us, s.P999Us, s.MaxUs)
		}
	}
}
