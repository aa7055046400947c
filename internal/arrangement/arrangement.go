// Package arrangement implements the exact generic procedure of
// Section 3.1 of the paper for orthogonal range queries: the buckets are
// the cells of (a refinement of) the arrangement of the training ranges,
// and the weights minimize the training loss exactly over all histograms
// (resp. discrete distributions) — Lemma 3.1.
//
// For axis-aligned boxes the arrangement is refined by the grid of all
// query facet coordinates: every grid cell lies in the same subset of
// training ranges, which is precisely the property Lemma 3.1 needs. The
// cell count is O((2n+1)^d), the exponential dependence on d that motivates
// the bounded-complexity learners QUADHIST and PTSHIST.
package arrangement

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/solver"
)

// ErrTooManyCells is returned when the arrangement would exceed the cap.
var ErrTooManyCells = errors.New("arrangement: cell count exceeds the cap")

// GridCells returns the cells of the facet-coordinate grid refinement of
// the arrangement of the boxes over [0,1]^d, capped at maxCells.
func GridCells(dim int, boxes []geom.Box, maxCells int) ([]geom.Box, error) {
	coords := make([][]float64, dim)
	for i := 0; i < dim; i++ {
		vals := []float64{0, 1}
		for _, b := range boxes {
			if b.Lo[i] > 0 && b.Lo[i] < 1 {
				vals = append(vals, b.Lo[i])
			}
			if b.Hi[i] > 0 && b.Hi[i] < 1 {
				vals = append(vals, b.Hi[i])
			}
		}
		sort.Float64s(vals)
		// Deduplicate.
		uniq := vals[:1]
		for _, v := range vals[1:] {
			if v > uniq[len(uniq)-1] {
				uniq = append(uniq, v)
			}
		}
		coords[i] = uniq
	}
	total := 1
	for i := 0; i < dim; i++ {
		total *= len(coords[i]) - 1
		if maxCells > 0 && total > maxCells {
			return nil, fmt.Errorf("%w: ≥%d", ErrTooManyCells, total)
		}
	}
	cells := make([]geom.Box, 0, total)
	idx := make([]int, dim)
	for {
		lo := make(geom.Point, dim)
		hi := make(geom.Point, dim)
		for i := 0; i < dim; i++ {
			lo[i] = coords[i][idx[i]]
			hi[i] = coords[i][idx[i]+1]
		}
		cells = append(cells, geom.Box{Lo: lo, Hi: hi})
		// Odometer increment.
		i := 0
		for ; i < dim; i++ {
			idx[i]++
			if idx[i] < len(coords[i])-1 {
				break
			}
			idx[i] = 0
		}
		if i == dim {
			break
		}
	}
	return cells, nil
}

// Options configures the exact learner.
type Options struct {
	// Discrete selects the discrete-distribution variant: one point per
	// cell (the cell center) instead of the cell itself.
	Discrete bool
}

// maxCells caps the arrangement size.
const maxCells = 200000

// Trainer is the exact arrangement learner.
type Trainer struct {
	Dim  int
	Opts Options
}

// New returns an arrangement trainer for boxes in dimension dim.
func New(dim int, discrete bool) *Trainer {
	return &Trainer{Dim: dim, Opts: Options{Discrete: discrete}}
}

// Name implements core.Trainer.
func (t *Trainer) Name() string {
	if t.Opts.Discrete {
		return "Arrangement-discrete"
	}
	return "Arrangement-hist"
}

// Model is the trained arrangement-based distribution.
type Model struct {
	Cells   []geom.Box
	Points  []geom.Point // non-nil in the discrete variant
	Weights []float64
}

// Train implements core.Trainer. All training ranges must be boxes.
func (t *Trainer) Train(samples []core.LabeledQuery) (core.Model, error) {
	boxes := make([]geom.Box, len(samples))
	for i, z := range samples {
		b, ok := z.R.(geom.Box)
		if !ok {
			return nil, errors.New("arrangement: the grid construction needs box queries")
		}
		boxes[i] = b
	}
	cells, err := GridCells(t.Dim, boxes, maxCells)
	if err != nil {
		return nil, err
	}
	s := core.Selectivities(samples)
	m := &Model{Cells: cells}
	if t.Opts.Discrete {
		m.Points = make([]geom.Point, len(cells))
		for j, c := range cells {
			m.Points[j] = c.Center()
		}
		a := core.DesignMatrixPoints(samples, m.Points)
		m.Weights, err = solver.Weights(a, s)
	} else {
		a := core.DesignMatrixBoxes(samples, cells)
		m.Weights, err = solver.Weights(a, s)
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// NumBuckets implements core.Model.
func (m *Model) NumBuckets() int { return len(m.Cells) }

// Estimate implements core.Model.
func (m *Model) Estimate(r geom.Range) float64 {
	s := 0.0
	if m.Points != nil {
		for j, p := range m.Points {
			if m.Weights[j] != 0 && r.Contains(p) {
				s += m.Weights[j]
			}
		}
		return core.Clamp01(s)
	}
	for j, c := range m.Cells {
		w := m.Weights[j]
		if w == 0 || !r.IntersectsBox(c) {
			continue
		}
		if r.ContainsBox(c) {
			s += w
			continue
		}
		v := c.Volume()
		if v == 0 {
			continue
		}
		s += r.IntersectBoxVolume(c) / v * w
	}
	return core.Clamp01(s)
}

var _ core.Trainer = (*Trainer)(nil)
var _ core.Model = (*Model)(nil)
