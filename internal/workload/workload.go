// Package workload generates the labeled query workloads of Section 4 of
// the paper: three query classes (orthogonal range, halfspace, ball) ×
// three center distributions (Data-driven, Random, Gaussian), plus the
// shifted-Gaussian grid of Section 4.3.
//
// An orthogonal range query is a center point plus per-dimension side
// lengths drawn uniformly from [0,1]; ball queries draw a radius uniformly
// from [0,1]; halfspace queries pass through the center with a uniformly
// random orientation. Categorical attributes receive equality predicates —
// the query side covers exactly the category band of the center's category
// (see dataset package docs). Labels are exact selectivities computed
// against the dataset through kdtree.Tree: a rank index for boxes, a
// kd-tree walk for the other classes.
package workload

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/rng"
)

// Class identifies a query class.
type Class int

const (
	// OrthogonalRange is the Σ_□ family (axis-aligned boxes).
	OrthogonalRange Class = iota
	// Halfspace is the Σ_\ family (linear inequalities).
	Halfspace
	// Ball is the Σ_○ family (distance-based queries).
	Ball
	// DiscIntersect is the semi-algebraic Σ_● family of Section 2.2:
	// over a dataset of discs encoded as (cx, cy, radius) points, the
	// query selects discs intersecting a query disc. Valid only on
	// 3-dimensional disc datasets (see dataset.Discs).
	DiscIntersect
	// AnnulusQuery is the general semi-algebraic family T_{d,b,Δ} of
	// Section 2.2, instantiated as the paper's Figure 3 example: a
	// parabola-cut ring with b = 3 polynomial constraints of degree ≤ 2.
	// Valid only on 2-dimensional datasets.
	AnnulusQuery
)

// String names the class for experiment output.
func (c Class) String() string {
	switch c {
	case OrthogonalRange:
		return "range"
	case Halfspace:
		return "halfspace"
	case Ball:
		return "ball"
	case DiscIntersect:
		return "disc-intersect"
	case AnnulusQuery:
		return "annulus"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Centers identifies the query-center distribution.
type Centers int

const (
	// DataDriven samples centers uniformly from the dataset tuples.
	DataDriven Centers = iota
	// Random samples centers uniformly from the unit cube.
	Random
	// Gaussian samples centers from a per-dimension normal distribution.
	Gaussian
)

// String names the center distribution for experiment output.
func (c Centers) String() string {
	switch c {
	case DataDriven:
		return "data-driven"
	case Random:
		return "random"
	case Gaussian:
		return "gaussian"
	}
	return fmt.Sprintf("centers(%d)", int(c))
}

// Spec configures a workload.
type Spec struct {
	Class   Class
	Centers Centers
	// GaussMean/GaussStd parameterize the Gaussian center distribution.
	// The paper's default workload uses mean 0.5 and spread 0.167 per
	// dimension; Section 4.3 shifts the mean. A nil GaussMean means 0.5
	// in every dimension.
	GaussMean geom.Point
	GaussStd  float64
	// MaxSide scales the uniform side-length distribution of orthogonal
	// range queries to [0, MaxSide] (0 means the paper's [0,1]).
	MaxSide float64
	// MaxRadius scales the uniform radius distribution of ball queries
	// to [0, MaxRadius] (0 means the paper's [0,1]).
	MaxRadius float64
}

// DefaultGaussStd is the per-dimension spread of the paper's Gaussian
// workload.
const DefaultGaussStd = 0.167

// Generator produces labeled queries against a fixed dataset projection.
// It owns the kdtree.Tree used for exact labeling (a rank index that
// counts boxes and a kd-tree walk for every other range, each built on
// first use), so build one Generator per dataset and draw as many
// workloads from it as needed.
type Generator struct {
	ds   *dataset.Dataset
	tree *kdtree.Tree
	r    *rng.RNG
}

// NewGenerator builds a generator (and the labeling index) for the dataset.
func NewGenerator(ds *dataset.Dataset, seed uint64) *Generator {
	return &Generator{ds: ds, tree: kdtree.Build(ds.Points), r: rng.New(seed)}
}

// Dataset returns the generator's dataset.
func (g *Generator) Dataset() *dataset.Dataset { return g.ds }

// Tree exposes the labeling index (used by examples that need true
// selectivities for evaluation).
func (g *Generator) Tree() *kdtree.Tree { return g.tree }

// center draws one query center according to the spec.
func (g *Generator) center(spec Spec) geom.Point {
	d := g.ds.Dim()
	c := make(geom.Point, d)
	switch spec.Centers {
	case DataDriven:
		p := g.ds.Points[g.r.IntN(g.ds.Len())]
		copy(c, p)
	case Random:
		for i := range c {
			c[i] = g.r.Float64()
		}
	case Gaussian:
		std := spec.GaussStd
		if std == 0 {
			std = DefaultGaussStd
		}
		for i := range c {
			mean := 0.5
			if spec.GaussMean != nil {
				mean = spec.GaussMean[i]
			}
			v := mean + std*g.r.NormFloat64()
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			c[i] = v
		}
	}
	return c
}

// query draws one unlabeled query range.
func (g *Generator) query(spec Spec) geom.Range {
	d := g.ds.Dim()
	c := g.center(spec)
	maxSide := spec.MaxSide
	if maxSide == 0 {
		maxSide = 1
	}
	maxRadius := spec.MaxRadius
	if maxRadius == 0 {
		maxRadius = 1
	}
	switch spec.Class {
	case OrthogonalRange:
		sides := make([]float64, d)
		for i := 0; i < d; i++ {
			if col := g.ds.Cols[i]; col.Categorical {
				// Equality predicate: snap to the category band of
				// the center's category.
				m := col.Cardinality
				k := int(c[i] * float64(m))
				if k >= m {
					k = m - 1
				}
				c[i] = (float64(k) + 0.5) / float64(m)
				sides[i] = 1 / float64(m)
				continue
			}
			sides[i] = maxSide * g.r.Float64()
		}
		return geom.BoxFromCenter(c, sides)
	case Ball:
		return geom.NewBall(c, maxRadius*g.r.Float64())
	case DiscIntersect:
		if d != 3 {
			panic("workload: disc-intersect queries need a 3D disc dataset")
		}
		// The query disc is centered at the (cx, cy) of the drawn
		// center; the z coordinate (a data radius) is ignored.
		return geom.NewDiscIntersection(c[0], c[1], maxRadius*g.r.Float64())
	case AnnulusQuery:
		if d != 2 {
			panic("workload: annulus queries need a 2D dataset")
		}
		outer := maxRadius * (0.1 + 0.9*g.r.Float64())
		inner := outer * g.r.Float64() * 0.8
		k := 8 * (g.r.Float64() - 0.5) // parabola curvature, either sign
		return geom.Annulus(c[0], c[1], inner, outer, k)
	case Halfspace:
		normal := make(geom.Point, d)
		for {
			norm := 0.0
			for i := range normal {
				normal[i] = g.r.NormFloat64()
				norm += normal[i] * normal[i]
			}
			if norm > 1e-12 {
				inv := 1 / math.Sqrt(norm)
				for i := range normal {
					normal[i] *= inv
				}
				break
			}
		}
		return geom.HalfspaceThroughPoint(c, normal)
	}
	panic("workload: unknown query class")
}

// Generate draws n labeled queries i.i.d. from the spec's distribution.
func (g *Generator) Generate(spec Spec, n int) []core.LabeledQuery {
	out := make([]core.LabeledQuery, n)
	for i := 0; i < n; i++ {
		q := g.query(spec)
		out[i] = core.LabeledQuery{R: q, Sel: g.tree.Selectivity(q)}
	}
	return out
}

// TrainTest draws an nTrain-query training set and an independent
// nTest-query test set from the same distribution, matching the paper's
// protocol ("training and test queries … sampled uniformly and
// independently from the same query workload").
func (g *Generator) TrainTest(spec Spec, nTrain, nTest int) (train, test []core.LabeledQuery) {
	return g.Generate(spec, nTrain), g.Generate(spec, nTest)
}

// Truths extracts the label vector of a workload.
func Truths(samples []core.LabeledQuery) []float64 {
	out := make([]float64, len(samples))
	for i, z := range samples {
		out[i] = z.Sel
	}
	return out
}
