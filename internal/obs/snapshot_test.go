package obs

import (
	"math"
	"testing"
)

func TestHistogramSnapshotMatchesLive(t *testing.T) {
	h := NewHistogram(ExpBuckets(1e-6, 1e0, 4))
	vals := []float64{2e-6, 5e-5, 5e-5, 3e-3, 0.2, 7.5}
	for _, v := range vals {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != h.Count() {
		t.Fatalf("snapshot count %d, live %d", s.Count, h.Count())
	}
	if s.Sum != h.Sum() {
		t.Fatalf("snapshot sum %v, live %v", s.Sum, h.Sum())
	}
	if s.Max != h.Max() {
		t.Fatalf("snapshot max %v, live %v", s.Max, h.Max())
	}
}

func TestHistogramSnapshotDelta(t *testing.T) {
	h := NewHistogram(ExpBuckets(1e-6, 1e0, 4))
	h.Observe(1e-5)
	h.Observe(2e-3)
	before := h.Snapshot()
	h.Observe(4e-4)
	h.Observe(4e-4)
	h.Observe(0.9)
	after := h.Snapshot()

	d := after.Delta(before)
	if d.Count != 3 {
		t.Fatalf("delta count = %d, want 3", d.Count)
	}
	wantSum := after.Sum - before.Sum
	if math.Abs(d.Sum-wantSum) > 1e-12 {
		t.Fatalf("delta sum = %v, want %v", d.Sum, wantSum)
	}
	// The interval's median must fall in the 4e-4 bucket, not be dragged
	// down by the pre-interval observations.
	med := d.Quantile(0.5)
	if med < 1e-4 || med > 1e-3 {
		t.Fatalf("delta median %v outside the 4e-4 bucket", med)
	}
	// Delta against an empty snapshot is the identity.
	id := after.Delta(HistogramSnapshot{})
	if id.Count != after.Count || id.Sum != after.Sum {
		t.Fatalf("delta vs zero snapshot changed totals: %+v vs %+v", id, after)
	}
}

func TestHistogramSnapshotDeltaLayoutMismatchPanics(t *testing.T) {
	a := NewHistogram(ExpBuckets(1e-6, 1e0, 4)).Snapshot()
	b := NewHistogram(ExpBuckets(1e-6, 1e2, 4)).Snapshot()
	defer func() {
		if recover() == nil {
			t.Fatal("Delta across different bucket layouts did not panic")
		}
	}()
	_ = a.Delta(b)
}

func TestHistogramSnapshotEmptyQuantile(t *testing.T) {
	var s HistogramSnapshot
	if got := s.Quantile(0.99); got != 0 {
		t.Fatalf("empty snapshot Quantile = %v, want 0", got)
	}
	if got := s.Mean(); got != 0 {
		t.Fatalf("empty snapshot Mean = %v, want 0", got)
	}
}
