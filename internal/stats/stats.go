// Package stats provides the statistical machinery the paper's methodology
// needs: Pearson correlation (Fig. 8), standardization, a symmetric
// eigensolver and PCA, Factor Analysis of Mixed Data (FAMD, after Pagès —
// the paper uses the FactoMineR implementation), and agglomerative
// hierarchical clustering with Ward linkage plus dendrogram utilities
// (Fig. 9). Only the standard library is used.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimension is returned when input shapes do not line up.
var ErrDimension = errors.New("stats: dimension mismatch")

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Pearson returns the Pearson correlation coefficient between x and y.
// It returns 0 (not an error) when either series is constant: the paper's
// correlation heatmap treats undefined correlation as "no correlation".
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("%w: len(x)=%d len(y)=%d", ErrDimension, len(x), len(y))
	}
	if len(x) < 2 {
		return 0, fmt.Errorf("stats: pearson needs at least 2 samples, got %d", len(x))
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	r := sxy / math.Sqrt(sxx*syy)
	// Numerical safety: clamp to [-1, 1].
	if r > 1 {
		r = 1
	}
	if r < -1 {
		r = -1
	}
	return r, nil
}

// Standardize z-scores a column in place and returns it. Constant columns
// become all-zero.
func Standardize(col []float64) []float64 {
	m, sd := Mean(col), StdDev(col)
	for i := range col {
		if sd == 0 {
			col[i] = 0
		} else {
			col[i] = (col[i] - m) / sd
		}
	}
	return col
}

// Column extracts column j from a row-major matrix.
func Column(rows [][]float64, j int) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = r[j]
	}
	return out
}

// EuclideanDist returns the L2 distance between two equal-length vectors.
func EuclideanDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// CorrelationStrength buckets |r| the way Figure 8 colors its cells.
type CorrelationStrength uint8

const (
	// NoCorrelation: |r| < 0.2 (white).
	NoCorrelation CorrelationStrength = iota
	// WeakCorrelation: 0.2 <= |r| < 0.5 (gray).
	WeakCorrelation
	// StrongCorrelation: |r| >= 0.5 (black).
	StrongCorrelation
)

// String returns the bucket label.
func (c CorrelationStrength) String() string {
	switch c {
	case NoCorrelation:
		return "none"
	case WeakCorrelation:
		return "weak"
	default:
		return "strong"
	}
}

// Strength buckets a correlation coefficient per the paper's color code.
func Strength(r float64) CorrelationStrength {
	a := math.Abs(r)
	switch {
	case a < 0.2:
		return NoCorrelation
	case a < 0.5:
		return WeakCorrelation
	default:
		return StrongCorrelation
	}
}
