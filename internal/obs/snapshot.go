package obs

import "math"

// HistogramSnapshot is a point-in-time copy of a Histogram's state,
// decoupled from the live atomics. Snapshots support interval arithmetic
// (Delta) and quantile estimation, which is what turns two scrapes of a
// cumulative histogram into a rate: the load harness snapshots the
// server's latency histograms before and after a run and reports
// quantiles of the traffic in between, not of the whole uptime.
//
// Counts are per-bucket (NOT cumulative); Counts[len(Bounds)] is the
// overflow bucket.
type HistogramSnapshot struct {
	Bounds []float64 // ascending upper bounds (shared, do not mutate)
	Counts []int64   // len(Bounds)+1 per-bucket counts
	Count  int64
	Sum    float64
	Max    float64 // exact max when taken from a live histogram; 0 if unknown
}

// Snapshot copies the histogram's current state. Concurrent observations
// may land between bucket reads — each bucket is individually consistent,
// and Count is recomputed as the sum of the bucket reads so the snapshot
// is always internally consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    h.Sum(),
		Max:    h.Max(),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// Delta returns the interval s−prev: the observations recorded after prev
// was taken. Both snapshots must come from the same histogram (identical
// bounds); Delta panics otherwise, because silently mixing layouts would
// fabricate latencies. The delta's Max is s.Max — the cumulative maximum
// is the only upper bound available for the interval (a max cannot be
// subtracted), so it is exact when the interval contains the all-time
// maximum and conservative otherwise.
func (s HistogramSnapshot) Delta(prev HistogramSnapshot) HistogramSnapshot {
	if prev.Counts == nil {
		return s
	}
	if len(s.Bounds) != len(prev.Bounds) || len(s.Counts) != len(prev.Counts) {
		panic("obs: HistogramSnapshot.Delta across different bucket layouts")
	}
	d := HistogramSnapshot{
		Bounds: s.Bounds,
		Counts: make([]int64, len(s.Counts)),
		Sum:    s.Sum - prev.Sum,
		Max:    s.Max,
	}
	for i, c := range s.Counts {
		dc := c - prev.Counts[i]
		if dc < 0 {
			dc = 0 // histogram was reset between snapshots
		}
		d.Counts[i] = dc
		d.Count += dc
	}
	return d
}

// Quantile estimates the q-quantile (q in [0,1]) of the snapshot. Within a
// bucket the value is interpolated geometrically (the buckets are
// log-spaced), so the estimate is exact to within one bucket's width.
// When Max is known (nonzero) it is the exact Quantile(1) and bounds the
// overflow bucket; otherwise the overflow bucket is pinned to its lower
// bound. Returns 0 before any observation.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q >= 1 && s.Max > 0 {
		return s.Max
	}
	if q < 0 {
		q = 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	cum := int64(0)
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if cum+c < rank {
			cum += c
			continue
		}
		frac := float64(rank-cum) / float64(c)
		lo, hi := s.bucketEdges(i)
		if lo <= 0 {
			return hi * frac
		}
		return lo * math.Pow(hi/lo, frac)
	}
	if s.Max > 0 {
		return s.Max
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Mean returns the average observed value (0 before any observation).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// bucketEdges returns the (lower, upper) value range of bucket i, with the
// overflow bucket capped by the exact max when one is known.
func (s HistogramSnapshot) bucketEdges(i int) (lo, hi float64) {
	if i == 0 {
		return 0, s.Bounds[0]
	}
	if i == len(s.Bounds) {
		lo = s.Bounds[len(s.Bounds)-1]
		hi = lo
		if s.Max > lo {
			hi = s.Max
		}
		return lo, hi
	}
	return s.Bounds[i-1], s.Bounds[i]
}
