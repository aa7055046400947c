package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension. Series under the same metric name are
// distinguished by their full, sorted label sets.
type Label struct {
	Key   string
	Value string
}

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; methods on a nil *Counter are no-ops, so optional wiring
// costs one predictable branch.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be non-negative; counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64. The zero value is ready to
// use; methods on a nil *Gauge are no-ops.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by delta (CAS loop; gauges are low-frequency).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a log-spaced-bucket distribution summary. Observations land
// in the first bucket whose upper bound is >= the value (cumulative
// Prometheus convention); the sum accumulates in integer ticks of 1e-9 so
// that concurrent observation order can never change the exposed bytes
// (integer addition commutes exactly; float accumulation does not). The
// maximum is tracked exactly via a CAS loop, so a Snapshot's Quantile(1)
// is exact and every other quantile is exact to within one bucket's
// resolution.
//
// The zero value is not usable — buckets come from the Registry (or
// NewHistogram). Methods on a nil *Histogram are no-ops.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts  []atomic.Int64
	count   atomic.Int64
	sumTick atomic.Int64  // Σ value · 1e9, rounded per observation
	maxBits atomic.Uint64 // ordered uint encoding of the max (see observeMax)
}

// sumScale is the fixed-point resolution of Histogram sums: one tick is
// 1e-9 of the observed unit (one nanosecond for latency-seconds
// histograms). Integer accumulation keeps exposition order-independent.
const sumScale = 1e9

// NewHistogram returns a histogram over the given ascending upper bounds.
// Most callers use Registry.Histogram instead.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// ExpBuckets returns log-spaced bucket bounds from lo up to and including
// hi, with perDecade bounds per factor of ten. Each bound is computed
// directly from its index (no accumulated multiplication) and snapped to
// its own three-significant-digit decimal representation, so the value IS
// the `le` label the exposition prints — the same arguments always yield
// the same bytes, and the label never lies about the bound.
func ExpBuckets(lo, hi float64, perDecade int) []float64 {
	if lo <= 0 || hi <= lo || perDecade < 1 {
		panic("obs: ExpBuckets needs 0 < lo < hi and perDecade >= 1")
	}
	var out []float64
	for i := 0; ; i++ {
		raw := lo * math.Pow(10, float64(i)/float64(perDecade))
		b, err := strconv.ParseFloat(strconv.FormatFloat(raw, 'g', 3, 64), 64)
		if err != nil {
			panic("obs: ExpBuckets round-trip: " + err.Error())
		}
		if b > hi*(1+1e-12) {
			break
		}
		out = append(out, b)
	}
	return out
}

// LatencyBuckets is the default latency histogram layout: 1µs to 100s in
// seconds, four buckets per decade (≈78% bucket width, so quantiles are
// exact to within ±33% — ample for the order-of-magnitude questions the
// serving dashboards ask).
var LatencyBuckets = ExpBuckets(1e-6, 1e2, 4)

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumTick.Add(int64(math.Round(v * sumScale)))
	h.observeMax(v)
}

// observeMax folds v into the running maximum. Floats are compared via
// their ordered-uint encoding (sign-flipped IEEE bits), which makes the
// CAS loop a plain integer max — commutative, so exposition stays
// order-independent.
func (h *Histogram) observeMax(v float64) {
	enc := orderedBits(v)
	for {
		old := h.maxBits.Load()
		if old != 0 && enc <= old {
			return
		}
		if h.maxBits.CompareAndSwap(old, enc) {
			return
		}
	}
}

// orderedBits maps a float64 to a uint64 that preserves ordering and is
// never zero for any finite non-negative input (zero means "no
// observations yet").
func orderedBits(v float64) uint64 {
	b := math.Float64bits(v)
	if b&(1<<63) != 0 {
		b = ^b
	} else {
		b |= 1 << 63
	}
	return b
}

func unorderedBits(b uint64) float64 {
	if b&(1<<63) != 0 {
		b &^= 1 << 63
	} else {
		b = ^b
	}
	return math.Float64frombits(b)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (at tick resolution).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sumTick.Load()) / sumScale
}

// Max returns the largest observation, exactly (0 before any observation).
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	b := h.maxBits.Load()
	if b == 0 {
		return 0
	}
	return unorderedBits(b)
}

// ---- registry -------------------------------------------------------------

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one (name, labels) time series.
type series struct {
	labels    string // pre-rendered, sorted: `{k="v",...}` or ""
	counter   *Counter
	gauge     *Gauge
	hist      *Histogram
	counterFn func() int64
	gaugeFn   func() float64
}

// family groups all series sharing a metric name (one HELP/TYPE block).
type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]*series
}

// Registry holds named metrics and renders them as deterministic
// Prometheus text exposition. Registration takes a lock; the returned
// Counter/Gauge/Histogram handles are lock-free afterwards. Registering
// the same name+labels again returns the existing metric (kinds must
// match), so packages can idempotently re-request their handles.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels canonicalizes a label set: sorted by key, values escaped,
// rendered once at registration so exposition never re-formats.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	out := "{"
	for i, l := range ls {
		if i > 0 {
			out += ","
		}
		out += l.Key + `="` + escapeLabelValue(l.Value) + `"`
	}
	return out + "}"
}

func escapeLabelValue(v string) string {
	var out []byte
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}

// register finds or creates the series for (name, labels); build is called
// under the lock to create a fresh series when none exists.
func (r *Registry) register(name, help string, kind metricKind, labels []Label, build func() *series) *series {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
	}
	s, ok := f.series[key]
	if !ok {
		s = build()
		s.labels = key
		f.series[key] = s
	}
	return s
}

// Counter registers (or finds) a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.register(name, help, kindCounter, labels, func() *series {
		return &series{counter: &Counter{}}
	})
	if s.counter == nil {
		panic(fmt.Sprintf("obs: metric %q already registered as a counter func", name))
	}
	return s.counter
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.register(name, help, kindGauge, labels, func() *series {
		return &series{gauge: &Gauge{}}
	})
	if s.gauge == nil {
		panic(fmt.Sprintf("obs: metric %q already registered as a gauge func", name))
	}
	return s.gauge
}

// Histogram registers (or finds) a histogram over bounds (nil = the
// default LatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = LatencyBuckets
	}
	s := r.register(name, help, kindHistogram, labels, func() *series {
		return &series{hist: NewHistogram(bounds)}
	})
	return s.hist
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — the bridge for subsystems that already keep their own
// counts (the feedback rings, the parallel pool). fn must be safe for
// concurrent calls and monotone non-decreasing.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.register(name, help, kindCounter, labels, func() *series {
		return &series{counterFn: fn}
	})
}

// GaugeFunc registers a gauge read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGauge, labels, func() *series {
		return &series{gaugeFn: fn}
	})
}
