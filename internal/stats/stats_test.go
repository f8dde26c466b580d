package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Errorf("mean = %g", Mean(xs))
	}
	if StdDev(xs) != 2 {
		t.Errorf("std = %g", StdDev(xs))
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Error("empty input should yield 0")
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Errorf("r = %g, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(x, neg)
	if math.Abs(r+1) > 1e-12 {
		t.Errorf("r = %g, want -1", r)
	}
}

func TestPearsonConstantSeries(t *testing.T) {
	r, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if r != 0 {
		t.Errorf("constant series r = %g, want 0", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Error("single sample should fail")
	}
}

func TestPearsonSymmetricBounded(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(30)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
			y[i] = r.NormFloat64()
		}
		a, err1 := Pearson(x, y)
		b, err2 := Pearson(y, x)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(a-b) < 1e-12 && a >= -1 && a <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStandardize(t *testing.T) {
	col := []float64{1, 2, 3, 4, 5}
	Standardize(col)
	if math.Abs(Mean(col)) > 1e-12 {
		t.Errorf("standardized mean = %g", Mean(col))
	}
	if math.Abs(StdDev(col)-1) > 1e-12 {
		t.Errorf("standardized std = %g", StdDev(col))
	}
	constant := []float64{3, 3, 3}
	Standardize(constant)
	for _, v := range constant {
		if v != 0 {
			t.Error("constant column should standardize to zeros")
		}
	}
}

func TestStrengthBuckets(t *testing.T) {
	cases := map[float64]CorrelationStrength{
		0: NoCorrelation, 0.19: NoCorrelation, -0.19: NoCorrelation,
		0.2: WeakCorrelation, -0.49: WeakCorrelation,
		0.5: StrongCorrelation, -1: StrongCorrelation,
	}
	for r, want := range cases {
		if got := Strength(r); got != want {
			t.Errorf("Strength(%g) = %v, want %v", r, got, want)
		}
	}
	if NoCorrelation.String() != "none" || StrongCorrelation.String() != "strong" {
		t.Error("strength names")
	}
}

func TestEuclideanDist(t *testing.T) {
	if d := EuclideanDist([]float64{0, 0}, []float64{3, 4}); d != 5 {
		t.Errorf("dist = %g, want 5", d)
	}
}
