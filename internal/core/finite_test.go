package core_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/hist"
	"repro/internal/isomer"
	"repro/internal/ptshist"
	"repro/internal/quicksel"
	"repro/internal/rng"
)

// TestTrainersRejectNonFiniteSelectivities: every trainer refuses a
// training set with a NaN or infinite label, naming the sample, before it
// builds anything. Without the check such a label trained without error
// into a model that answered far from the clean one.
func TestTrainersRejectNonFiniteSelectivities(t *testing.T) {
	r := rng.New(5)
	clean := make([]core.LabeledQuery, 40)
	for i := range clean {
		lo := geom.Point{0.8 * r.Float64(), 0.8 * r.Float64()}
		hi := geom.Point{lo[0] + 0.2, lo[1] + 0.2}
		clean[i] = core.LabeledQuery{R: geom.NewBox(lo, hi), Sel: 0.04 + 0.1*r.Float64()}
	}
	trainers := []core.Trainer{hist.New(2, 60), ptshist.New(2, 60, 1), quicksel.New(2, 1), isomer.New(2)}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		samples := append([]core.LabeledQuery(nil), clean...)
		samples[17].Sel = bad
		for _, tr := range trainers {
			m, err := tr.Train(samples)
			if !errors.Is(err, core.ErrNonFiniteSelectivity) {
				t.Fatalf("%s with selectivity %v: model %v, err %v", tr.Name(), bad, m, err)
			}
			if !strings.Contains(err.Error(), "sample 17") {
				t.Fatalf("%s: error %q does not name sample 17", tr.Name(), err)
			}
		}
	}
	for _, tr := range trainers {
		if _, err := tr.Train(clean); err != nil {
			t.Fatalf("%s on finite labels: %v", tr.Name(), err)
		}
	}
}
