package stats

import (
	"fmt"
	"math"
	"sort"
)

// MixedData is the input of Factor Analysis of Mixed Data: n observations
// described by quantitative columns and qualitative (categorical) columns.
// In the paper, observations are dominant kernels, quantitative variables
// are the Table IV metrics, and qualitative variables are the two roofline
// labels (memory- vs compute-intensive, bandwidth- vs latency-bound).
type MixedData struct {
	// QuantNames names the quantitative columns.
	QuantNames []string
	// Quant is n x len(QuantNames).
	Quant [][]float64
	// QualNames names the qualitative columns.
	QualNames []string
	// Qual is n x len(QualNames) category labels.
	Qual [][]string
}

// Rows returns the number of observations.
func (d MixedData) Rows() int {
	if len(d.Quant) > 0 {
		return len(d.Quant)
	}
	return len(d.Qual)
}

// Validate reports shape errors.
func (d MixedData) Validate() error {
	n := d.Rows()
	if n == 0 {
		return fmt.Errorf("stats: FAMD of empty data")
	}
	if len(d.Quant) > 0 && len(d.Quant) != n {
		return fmt.Errorf("%w: quantitative rows", ErrDimension)
	}
	for i, r := range d.Quant {
		if len(r) != len(d.QuantNames) {
			return fmt.Errorf("%w: quant row %d has %d cols, want %d", ErrDimension, i, len(r), len(d.QuantNames))
		}
	}
	if len(d.Qual) > 0 && len(d.Qual) != n {
		return fmt.Errorf("%w: qualitative rows", ErrDimension)
	}
	for i, r := range d.Qual {
		if len(r) != len(d.QualNames) {
			return fmt.Errorf("%w: qual row %d has %d cols, want %d", ErrDimension, i, len(r), len(d.QualNames))
		}
	}
	return nil
}

// FAMDResult holds the factor decomposition.
type FAMDResult struct {
	// Coords is n x k: observation coordinates on the retained dimensions.
	// These are the denoised vectors the clustering step consumes.
	Coords [][]float64
	// Eigenvalues of the retained dimensions (descending).
	Eigenvalues []float64
	// ExplainedVariance per retained dimension.
	ExplainedVariance []float64
	// ColumnNames names the expanded (standardized + one-hot) design-matrix
	// columns, for diagnostics.
	ColumnNames []string
}

// FAMD performs Factor Analysis of Mixed Data, keeping k dimensions (the
// "first few, most significant dimensions" that denoise the data before
// clustering, per the paper's Section V-D). Quantitative columns are
// z-standardized; each qualitative category becomes an indicator column
// scaled by 1/sqrt(p_cat) and centered, the standard FAMD weighting that
// makes both variable kinds comparable. PCA on the combined matrix yields
// the coordinates.
func FAMD(d MixedData, k int) (*FAMDResult, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	n := d.Rows()

	var cols [][]float64
	var names []string

	// Quantitative block: z-scores.
	for j := range d.QuantNames {
		col := Standardize(Column(d.Quant, j))
		cols = append(cols, col)
		names = append(names, d.QuantNames[j])
	}

	// Qualitative block: scaled, centered indicators.
	for j, qn := range d.QualNames {
		// Collect category levels in deterministic order.
		counts := make(map[string]int)
		for i := 0; i < n; i++ {
			counts[d.Qual[i][j]]++
		}
		levels := make([]string, 0, len(counts))
		for l := range counts {
			levels = append(levels, l)
		}
		sort.Strings(levels)
		for _, level := range levels {
			p := float64(counts[level]) / float64(n)
			if p <= 0 || p >= 1 {
				// A constant qualitative column carries no information;
				// matching FactoMineR, it contributes nothing.
				if p >= 1 {
					continue
				}
			}
			w := 1 / math.Sqrt(p)
			col := make([]float64, n)
			mean := p * w
			for i := 0; i < n; i++ {
				v := 0.0
				if d.Qual[i][j] == level {
					v = w
				}
				col[i] = v - mean
			}
			cols = append(cols, col)
			names = append(names, qn+"="+level)
		}
	}

	if len(cols) == 0 {
		return nil, fmt.Errorf("stats: FAMD produced no columns")
	}
	// Assemble row-major design matrix.
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, len(cols))
		for j, c := range cols {
			rows[i][j] = c[i]
		}
	}
	if k <= 0 || k > len(cols) {
		k = len(cols)
	}
	pca, err := PCA(rows, k)
	if err != nil {
		return nil, err
	}
	return &FAMDResult{
		Coords:            pca.Scores,
		Eigenvalues:       pca.Eigenvalues[:min(k, len(pca.Eigenvalues))],
		ExplainedVariance: pca.ExplainedVariance[:min(k, len(pca.ExplainedVariance))],
		ColumnNames:       names,
	}, nil
}

// CumulativeVariance returns the cumulative explained variance of the first
// k dimensions of the result.
func (r *FAMDResult) CumulativeVariance(k int) float64 {
	var s float64
	for i := 0; i < k && i < len(r.ExplainedVariance); i++ {
		s += r.ExplainedVariance[i]
	}
	return s
}
