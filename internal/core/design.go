package core

import (
	"repro/internal/geom"
	"repro/internal/linalg"
	"repro/internal/parallel"
)

// parallelThreshold is the m·n size above which design-matrix assembly
// fans out across the shared worker pool. Rows are independent, so
// parallel assembly is bit-for-bit identical to sequential assembly.
const parallelThreshold = 1 << 16

// designWorkers picks the assembly parallelism for an m×n matrix.
func designWorkers(m, n int) int {
	if m*n < parallelThreshold {
		return 1
	}
	return parallel.Workers(0)
}

// DesignMatrixBoxes assembles the weight-estimation design matrix of
// Equation 6: A[i][j] = vol(Bⱼ ∩ Rᵢ)/vol(Bⱼ) for box buckets Bⱼ and query
// ranges Rᵢ. Zero-volume buckets contribute zero columns. The matrix is
// built straight into sparse form, row by row, and large matrices are
// assembled in parallel (deterministically).
func DesignMatrixBoxes(samples []LabeledQuery, buckets []geom.Box) *linalg.Sparse {
	return DesignMatrixBoxesWith(samples, buckets, designWorkers(len(samples), len(buckets)))
}

// DesignMatrixBoxesWith is DesignMatrixBoxes with an explicit worker count
// (used by the parallelism ablation benchmark; 0 = pool default).
func DesignMatrixBoxesWith(samples []LabeledQuery, buckets []geom.Box, workers int) *linalg.Sparse {
	vols := make([]float64, len(buckets))
	for j, b := range buckets {
		vols[j] = b.Volume()
	}
	return linalg.NewSparseRows(len(samples), len(buckets), workers, func(i int, row []float64) {
		z := samples[i]
		for j, b := range buckets {
			if vols[j] == 0 || !z.R.IntersectsBox(b) {
				continue
			}
			if z.R.ContainsBox(b) {
				row[j] = 1
				continue
			}
			row[j] = z.R.IntersectBoxVolume(b) / vols[j]
		}
	})
}

// DesignMatrixPoints assembles the discrete-distribution design matrix of
// Equation 7: A[i][j] = 1(Bⱼ ∈ Rᵢ) for point buckets Bⱼ, in sparse form.
// Large matrices are assembled in parallel (deterministically).
func DesignMatrixPoints(samples []LabeledQuery, points []geom.Point) *linalg.Sparse {
	return DesignMatrixPointsWith(samples, points, designWorkers(len(samples), len(points)))
}

// DesignMatrixPointsWith is DesignMatrixPoints with an explicit worker
// count (0 = pool default).
func DesignMatrixPointsWith(samples []LabeledQuery, points []geom.Point, workers int) *linalg.Sparse {
	return linalg.NewSparseRows(len(samples), len(points), workers, func(i int, row []float64) {
		z := samples[i]
		for j, p := range points {
			if z.R.Contains(p) {
				row[j] = 1
			}
		}
	})
}

// Selectivities extracts the label vector s of a training sample.
func Selectivities(samples []LabeledQuery) []float64 {
	s := make([]float64, len(samples))
	for i, z := range samples {
		s[i] = z.Sel
	}
	return s
}
