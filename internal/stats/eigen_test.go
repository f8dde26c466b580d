package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestEigenSymDiagonal(t *testing.T) {
	a := [][]float64{{3, 0, 0}, {0, 1, 0}, {0, 0, 2}}
	vals, vecs, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1}
	for i, w := range want {
		if math.Abs(vals[i]-w) > 1e-10 {
			t.Errorf("val[%d] = %g, want %g", i, vals[i], w)
		}
	}
	// First eigenvector should be e0 (up to sign).
	if math.Abs(math.Abs(vecs[0][0])-1) > 1e-8 {
		t.Errorf("first eigenvector = %v", Column(vecs, 0))
	}
}

func TestEigenSymKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	vals, vecs, err := EigenSym([][]float64{{2, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-3) > 1e-10 || math.Abs(vals[1]-1) > 1e-10 {
		t.Errorf("vals = %v", vals)
	}
	// Eigenvector for 3 is (1,1)/sqrt2.
	v := math.Abs(vecs[0][0] * vecs[1][0])
	if math.Abs(v-0.5) > 1e-8 {
		t.Errorf("eigenvector product = %g, want 0.5", v)
	}
}

func TestEigenSymReconstruction(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 6
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.NormFloat64()
			a[i][j], a[j][i] = v, v
		}
	}
	vals, vecs, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	// Check A v_k = lambda_k v_k.
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			var av float64
			for j := 0; j < n; j++ {
				av += a[i][j] * vecs[j][k]
			}
			if math.Abs(av-vals[k]*vecs[i][k]) > 1e-8 {
				t.Fatalf("A v != lambda v at (%d,%d): %g vs %g", i, k, av, vals[k]*vecs[i][k])
			}
		}
	}
	// Eigenvectors orthonormal.
	for k := 0; k < n; k++ {
		for l := k; l < n; l++ {
			var dot float64
			for i := 0; i < n; i++ {
				dot += vecs[i][k] * vecs[i][l]
			}
			want := 0.0
			if k == l {
				want = 1
			}
			if math.Abs(dot-want) > 1e-8 {
				t.Errorf("vec dot (%d,%d) = %g, want %g", k, l, dot, want)
			}
		}
	}
	// Trace preserved.
	var trA, trL float64
	for i := 0; i < n; i++ {
		trA += a[i][i]
		trL += vals[i]
	}
	if math.Abs(trA-trL) > 1e-8 {
		t.Errorf("trace mismatch: %g vs %g", trA, trL)
	}
}

func TestEigenSymErrors(t *testing.T) {
	if _, _, err := EigenSym(nil); err == nil {
		t.Error("empty matrix")
	}
	if _, _, err := EigenSym([][]float64{{1, 2}}); err == nil {
		t.Error("ragged matrix")
	}
	if _, _, err := EigenSym([][]float64{{1, 2}, {5, 1}}); err == nil {
		t.Error("asymmetric matrix")
	}
}

func TestPCARecoversDominantDirection(t *testing.T) {
	// Points along (1,1) with small noise: PC1 should be ~(1,1)/sqrt2 and
	// explain most variance.
	r := rand.New(rand.NewSource(42))
	var rows [][]float64
	for i := 0; i < 200; i++ {
		s := r.NormFloat64() * 10
		rows = append(rows, []float64{s + r.NormFloat64()*0.1, s + r.NormFloat64()*0.1})
	}
	for j := range rows[0] {
		for i, z := range Standardize(Column(rows, j)) {
			rows[i][j] = z
		}
	}
	res, err := PCA(rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExplainedVariance[0] < 0.95 {
		t.Errorf("PC1 explains %g, want > 0.95", res.ExplainedVariance[0])
	}
	if math.Abs(math.Abs(res.Components[0][0])-math.Sqrt(0.5)) > 0.05 {
		t.Errorf("PC1 = (%g,%g)", res.Components[0][0], res.Components[1][0])
	}
	if len(res.Scores) != 200 || len(res.Scores[0]) != 2 {
		t.Errorf("scores shape %dx%d", len(res.Scores), len(res.Scores[0]))
	}
}

func TestPCAScoreVarianceMatchesEigenvalue(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var rows [][]float64
	for i := 0; i < 500; i++ {
		rows = append(rows, []float64{r.NormFloat64() * 3, r.NormFloat64(), r.NormFloat64() * 0.5})
	}
	// Center columns.
	for j := 0; j < 3; j++ {
		col := Column(rows, j)
		m := Mean(col)
		for i := range rows {
			rows[i][j] -= m
		}
	}
	res, err := PCA(rows, 3)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		var v float64
		for _, s := range res.Scores {
			v += s[k] * s[k]
		}
		v /= float64(len(rows))
		if math.Abs(v-res.Eigenvalues[k]) > 0.05*math.Max(1, res.Eigenvalues[k]) {
			t.Errorf("score variance %g != eigenvalue %g (k=%d)", v, res.Eigenvalues[k], k)
		}
	}
}

func TestPCAErrors(t *testing.T) {
	if _, err := PCA(nil, 2); err == nil {
		t.Error("empty PCA should fail")
	}
	if _, err := PCA([][]float64{{1, 2}, {1}}, 2); err == nil {
		t.Error("ragged PCA should fail")
	}
}
