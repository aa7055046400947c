package montecarlo

import (
	"testing"
)

// TestIncrementalMatchesRadicalInverse is the bit-identity contract of the
// digit-counter fast path: every coordinate of the first 10k points, in
// every supported dimension, must equal the direct per-index computation
// exactly.
func TestIncrementalMatchesRadicalInverse(t *testing.T) {
	for d := 1; d <= MaxDim; d++ {
		h := NewHalton(d)
		p := make([]float64, d)
		for i := 1; i <= 10000; i++ {
			h.Next(p)
			for j := 0; j < d; j++ {
				want := radicalInverse(i, primes[j])
				if p[j] != want {
					t.Fatalf("d=%d index=%d dim=%d: incremental %v != radicalInverse %v",
						d, i, j, p[j], want)
				}
			}
		}
	}
}

func TestNextBlockMatchesNext(t *testing.T) {
	const d, count = 3, 257 // deliberately not a multiple of any block size
	ref := NewHalton(d)
	blk := NewHalton(d)
	want := make([]float64, count*d)
	for k := 0; k < count; k++ {
		ref.Next(want[k*d : (k+1)*d])
	}
	got := make([]float64, count*d)
	blk.NextBlock(got, count)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NextBlock[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestHaltonReset(t *testing.T) {
	h := NewHalton(4)
	p := make([]float64, 4)
	first := make([]float64, 0, 40)
	for i := 0; i < 10; i++ {
		h.Next(p)
		first = append(first, p...)
	}
	h.Reset()
	for i := 0; i < 10; i++ {
		h.Next(p)
		for j, v := range p {
			if v != first[i*4+j] {
				t.Fatalf("after Reset, point %d dim %d = %v, want %v", i, j, v, first[i*4+j])
			}
		}
	}
}

// TestNextNoAllocs pins the steady-state allocation behaviour: after the
// digit counters have grown, Next must not allocate at all.
func TestNextNoAllocs(t *testing.T) {
	h := NewHalton(8)
	p := make([]float64, 8)
	for i := 0; i < 1<<14; i++ {
		h.Next(p) // warm up: grow digit buffers past any index the test reaches
	}
	h.Reset()
	if avg := testing.AllocsPerRun(2000, func() { h.Next(p) }); avg != 0 {
		t.Fatalf("Halton.Next allocates %v per sample, want 0", avg)
	}
}

func TestVolumeNoAllocsSteadyState(t *testing.T) {
	lo := []float64{0, 0, 0}
	hi := []float64{1, 1, 1}
	inside := func(p []float64) bool { return p[0]+p[1]+p[2] <= 1 }
	Volume(lo, hi, 4096, inside) // warm the pool
	avg := testing.AllocsPerRun(20, func() { Volume(lo, hi, 4096, inside) })
	if raceEnabled {
		t.Logf("Volume allocates %v per call under -race; the ≤1 gate runs without it", avg)
		return
	}
	if avg > 1 {
		t.Fatalf("Volume allocates %v per call in steady state, want ≤1", avg)
	}
}

// BenchmarkHaltonNext measures per-sample cost and (with -benchmem)
// demonstrates the zero-allocation fast path.
func BenchmarkHaltonNext(b *testing.B) {
	h := NewHalton(8)
	p := make([]float64, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Next(p)
	}
}

// BenchmarkRadicalInverseNext is the pre-optimization baseline: the same
// 8-dimensional point generated with the direct div/mod computation.
func BenchmarkRadicalInverseNext(b *testing.B) {
	p := make([]float64, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range p {
			p[j] = radicalInverse(i+1, primes[j])
		}
	}
}
