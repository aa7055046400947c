package selest

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/arrangement"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gmm"
	"repro/internal/hist"
	"repro/internal/ptshist"
	"repro/internal/quicksel"
	"repro/internal/solver"
	"repro/internal/workload"
)

// goldenWeights holds an FNV-64a hash of the bits of every weight vector
// TestTrainedWeightsGolden trains. The values were recorded at commit
// 5a8fb2b from the test's own failure message, which prints every case's
// hash in this map's syntax. A change that moves a trained weight by one bit
// changes its hash, so a deliberate change (a new solver default, say)
// shows up here as a diff in review.
var goldenWeights = map[string]uint64{
	"arrangement/discrete": 0x5e770518bb739b90,
	"arrangement/hist":     0x5e770518bb739b90,
	"gmm":                  0x59eecc64abcf8801,
	"gmm/fista":            0x5d322ebf6a755810,
	"ptshist":              0xc798635c43d19936,
	"quadhist/fista":       0x8cf9713186a9ad43,
	"quadhist/fista_small": 0xe11f0001dee9d455,
	"quadhist/incremental": 0x4cd6fc146827e1bf,
	"quadhist/linf":        0xd34a691e03be4993,
	"quadhist/nnls":        0x3865533a575fb113,
	"quicksel/exact_qp":    0xabd31c92df349c1d,
	"quicksel/fista":       0xde781430a68bbde4,
	"quicksel/nnls":        0x604bff82a9569cb0,
}

// weightBitsHash is the FNV-64a hash of w's IEEE-754 bits, little-endian.
func weightBitsHash(w []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range w {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestTrainedWeightsGolden trains every learner path that fits Eq. 8's
// weights to a design matrix, at small fixed-seed sizes, and checks the
// bits of each weight vector against goldenWeights: QUADHIST either side
// of the solver's 350-bucket NNLS/FISTA switch and under the L∞ loss,
// PTSHIST, QuickSel either side of the switch and through its exact QP,
// both arrangement learners, an incremental QUADHIST refit and the
// Gaussian mixture, plus FISTA forced onto a tiny and a dense matrix.
// Other Go backends may fuse x*y+z into one rounding, so the bits are
// checked on amd64 only.
func TestTrainedWeightsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("weight bits are recorded for amd64, which never fuses a multiply-add")
	}
	spec := workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}
	power := workload.NewGenerator(dataset.Power(5000, 1).Project([]int{0, 1}), 2601).Generate(spec, 200)
	forest := workload.NewGenerator(dataset.Forest(5000, 1).Project([]int{0, 1, 2, 3, 4}), 2602).Generate(spec, 150)

	// Each case trains one model and returns its weights and bucket count.
	// side names the solver the auto rule must pick, checked by which side
	// of the 350-bucket switch the count falls on; cases that fit by
	// another route or force a solver leave it empty.
	type fit func() (w []float64, buckets int, err error)
	quadhist := func(train []core.LabeledQuery, opts hist.Options) fit {
		return func() ([]float64, int, error) {
			m, err := (&hist.Trainer{Dim: 2, Opts: opts}).TrainHist(train)
			if err != nil {
				return nil, 0, err
			}
			return m.Weights, len(m.Buckets), nil
		}
	}
	quickSel := func(train []core.LabeledQuery, exact bool) fit {
		return func() ([]float64, int, error) {
			tr := quicksel.New(2, 5)
			tr.Opts.ExactQP = exact
			m, err := tr.Train(train)
			if err != nil {
				return nil, 0, err
			}
			hm := m.(*hist.Model)
			return hm.Weights, len(hm.Buckets), nil
		}
	}
	arrange := func(discrete bool) fit {
		return func() ([]float64, int, error) {
			m, err := arrangement.New(2, discrete).Train(power[:15])
			if err != nil {
				return nil, 0, err
			}
			am := m.(*arrangement.Model)
			return am.Weights, len(am.Weights), nil
		}
	}
	mixture := func(method solver.Method) fit {
		return func() ([]float64, int, error) {
			tr := gmm.New(2, 24, 7)
			tr.Opts.Solver = method
			m, err := tr.TrainMixture(power)
			if err != nil {
				return nil, 0, err
			}
			return m.Weights, len(m.Weights), nil
		}
	}
	cases := []struct {
		name string
		side string
		fit  fit
	}{
		{"quadhist/nnls", "nnls", quadhist(power[:60], hist.Options{MaxBuckets: 200})},
		{"quadhist/fista", "fista", quadhist(power, hist.Options{MaxBuckets: 800})},
		{"quadhist/linf", "", quadhist(power[:30], hist.Options{MaxBuckets: 60, Objective: hist.ObjectiveLInf})},
		{"ptshist", "fista", func() ([]float64, int, error) {
			m, err := ptshist.New(5, 600, 3).TrainHist(forest)
			if err != nil {
				return nil, 0, err
			}
			return m.Weights, len(m.Weights), nil
		}},
		{"quicksel/nnls", "nnls", quickSel(power[:50], false)},
		{"quicksel/fista", "fista", quickSel(power[:120], false)},
		{"quicksel/exact_qp", "", quickSel(power[:50], true)},
		{"arrangement/hist", "fista", arrange(false)},
		{"arrangement/discrete", "fista", arrange(true)},
		{"quadhist/incremental", "", func() ([]float64, int, error) {
			inc, err := hist.NewIncremental(2, hist.IncrementalOptions{Tau: 0.01, MaxBuckets: 500, RefitEvery: 1 << 20})
			if err != nil {
				return nil, 0, err
			}
			for _, z := range power[:150] {
				if err := inc.Observe(z.R, z.Sel); err != nil {
					return nil, 0, err
				}
			}
			if err := inc.Refit(); err != nil {
				return nil, 0, err
			}
			return inc.Snapshot().Weights, inc.NumBuckets(), nil
		}},
		{"gmm", "", mixture(solver.MethodAuto)},
		// FISTA forced onto a matrix under 4,096 entries and onto the
		// mixture's 200 × 24 one, over 75% nonzero: its sparse products
		// must give the dense kernels' bits at any size and density.
		{"quadhist/fista_small", "", quadhist(power[:10], hist.Options{MaxBuckets: 40, Solver: solver.MethodPGD})},
		{"gmm/fista", "", mixture(solver.MethodPGD)},
	}
	got := map[string]uint64{}
	for _, c := range cases {
		w, buckets, err := c.fit()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.side != "" && (buckets <= 350) != (c.side == "nnls") {
			t.Fatalf("%s: %d buckets, on the wrong side of the 350-bucket solver switch", c.name, buckets)
		}
		got[c.name] = weightBitsHash(w)
	}
	if !maps.Equal(got, goldenWeights) {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "\t%q: %#016x,\n", name, got[name])
		}
		t.Fatalf("trained weight bits differ from goldenWeights; this run trained:\n%s", b.String())
	}
}
