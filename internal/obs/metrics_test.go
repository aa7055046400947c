package obs

import (
	"math"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("g", "help")
	g.Set(2.5)
	g.Add(-0.5)
	if got := g.Value(); got != 2.0 {
		t.Fatalf("gauge = %v, want 2", got)
	}
	// Re-registration returns the same handles.
	if r.Counter("c_total", "help") != c {
		t.Fatal("re-registering a counter returned a new handle")
	}
	if r.Gauge("g", "help") != g {
		t.Fatal("re-registering a gauge returned a new handle")
	}
}

func TestNilHandlesAreInert(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Snapshot().Quantile(0.5) != 0 {
		t.Fatal("nil metric handles must read as zero")
	}
}

func TestExpBucketsSnapToLabels(t *testing.T) {
	b := ExpBuckets(1e-6, 1e2, 4)
	if len(b) == 0 {
		t.Fatal("no buckets")
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not ascending at %d: %v <= %v", i, b[i], b[i-1])
		}
	}
	if b[0] != 1e-6 {
		t.Fatalf("first bound = %v, want 1e-6", b[0])
	}
	if last := b[len(b)-1]; last != 1e2 {
		t.Fatalf("last bound = %v, want 100", last)
	}
	// Snapping: decade boundaries must land exactly on powers of ten.
	want := map[float64]bool{1e-6: false, 1e-5: false, 1e-4: false, 1e-3: false, 1e-2: false, 0.1: false, 1: false, 10: false, 100: false}
	for _, v := range b {
		if _, ok := want[v]; ok {
			want[v] = true
		}
	}
	for v, seen := range want {
		if !seen {
			t.Fatalf("decade bound %v missing from %v", v, b)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(ExpBuckets(1e-3, 1e3, 4))
	// 1000 observations spread over two decades.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 100) // 0.01 .. 10
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Sum(), 5005.0; math.Abs(got-want) > 1e-3 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	if got := h.Max(); got != 10 {
		t.Fatalf("max = %v, want exactly 10", got)
	}
	s := h.Snapshot()
	if got := s.Quantile(1); got != 10 {
		t.Fatalf("q1 = %v, want exact max 10", got)
	}
	// Log-spaced buckets at 4/decade: the estimate must land within one
	// bucket (×10^0.25 ≈ 1.78) of the true quantile.
	for _, tc := range []struct{ q, truth float64 }{{0.5, 5.0}, {0.95, 9.5}, {0.99, 9.9}} {
		got := s.Quantile(tc.q)
		if got < tc.truth/1.9 || got > tc.truth*1.9 {
			t.Fatalf("q%.2f = %v, want within a bucket of %v", tc.q, got, tc.truth)
		}
	}
	// NaN observations are dropped, not corrupting state.
	h.Observe(math.NaN())
	if h.Count() != 1000 {
		t.Fatal("NaN observation was counted")
	}
}

func TestHistogramQuantileEmptyAndSingle(t *testing.T) {
	h := NewHistogram(LatencyBuckets)
	if h.Snapshot().Quantile(0.5) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Observe(0.5)
	if got := h.Snapshot().Quantile(1); got != 0.5 {
		t.Fatalf("q1 after one observation = %v, want 0.5", got)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("m", "help")
}

func TestLabelRendering(t *testing.T) {
	// Labels are sorted by key and escaped at registration.
	got := renderLabels([]Label{
		{Key: "z", Value: `quo"te`},
		{Key: "a", Value: "line\nbreak"},
		{Key: "m", Value: `back\slash`},
	})
	want := `{a="line\nbreak",m="back\\slash",z="quo\"te"}`
	if got != want {
		t.Fatalf("renderLabels = %s, want %s", got, want)
	}
	if renderLabels(nil) != "" {
		t.Fatal("no labels must render empty")
	}
}
