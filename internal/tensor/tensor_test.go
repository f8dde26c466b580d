package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// FromData wraps data with a shape; the length must match.
func FromData(data []float32, shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("tensor: %d elements for shape %v", len(data), shape)
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}, nil
}

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

func TestNewAndBasics(t *testing.T) {
	x := New(2, 3)
	if x.Numel() != 6 || x.Bytes() != 24 || x.Dim(1) != 3 {
		t.Error("basic accessors")
	}
	y := x.Clone()
	y.Data[0] = 5
	if x.Data[0] != 0 {
		t.Error("clone aliases data")
	}
	r, err := x.Reshape(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Dim(0) != 3 {
		t.Error("reshape")
	}
	if _, err := x.Reshape(4, 4); err == nil {
		t.Error("bad reshape should fail")
	}
	if !SameShape(x, New(2, 3)) || SameShape(x, New(3, 2)) {
		t.Error("SameShape")
	}
	f := Full(2, 2, 2)
	if f.Data[3] != 2 {
		t.Error("Full")
	}
	f.Zero()
	if f.Data[0] != 0 {
		t.Error("Zero")
	}
	if err := f.AddScaled(Full(1, 2, 2), 3); err != nil || f.Data[0] != 3 {
		t.Error("AddScaled")
	}
	if err := f.AddScaled(New(5), 1); err == nil {
		t.Error("AddScaled shape mismatch should fail")
	}
	if _, err := FromData([]float32{1, 2}, 3); err == nil {
		t.Error("FromData length mismatch should fail")
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(2, 0)
}

func TestMatMulKnown(t *testing.T) {
	a, _ := FromData([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b, _ := FromData([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c, err := MatMul(a, b, false, false)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Errorf("c[%d] = %g, want %g", i, c.Data[i], w)
		}
	}
}

func TestMatMulTransposes(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := Randn(r, 1, 4, 3)
	b := Randn(r, 1, 4, 5)
	// a^T (3x4) x b (4x5).
	c, err := MatMul(a, b, true, false)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: transpose a manually.
	at := New(3, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			at.Data[j*4+i] = a.Data[i*3+j]
		}
	}
	ref, _ := MatMul(at, b, false, false)
	for i := range ref.Data {
		if !almost(float64(c.Data[i]), float64(ref.Data[i]), 1e-5) {
			t.Fatalf("transA mismatch at %d", i)
		}
	}
	// b (4x5) x b^T -> (4,4) via transB.
	d, err := MatMul(b, b, false, true)
	if err != nil {
		t.Fatal(err)
	}
	if d.Shape[0] != 4 || d.Shape[1] != 4 {
		t.Errorf("transB shape %v", d.Shape)
	}
	// Diagonal entries are squared norms: positive.
	for i := 0; i < 4; i++ {
		if d.Data[i*4+i] <= 0 {
			t.Error("gram diagonal must be positive")
		}
	}
}

// TestMatMulBitIdentical holds MatMul, in all four transpose modes, bit
// for bit to the reference loop on widths 1 to 9, so that axpy's 4-wide
// body and its 1-3 element tail both run, with signed zeros, denormals
// and infinities among the inputs and zero rows of A, whose terms MatMul
// skips.
func TestMatMulBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	fill := func(shape ...int) *Tensor {
		x := Randn(r, 1, shape...)
		for i := range x.Data {
			if r.Intn(3) == 0 {
				x.Data[i] = convSpecials[r.Intn(len(convSpecials))]
			}
		}
		return x
	}
	for n := 1; n <= 9; n++ {
		for _, m := range []int{1, 3} {
			for _, k := range []int{1, 2, 5} {
				for mode := 0; mode < 4; mode++ {
					transA, transB := mode&1 != 0, mode&2 != 0
					aShape, bShape := []int{m, k}, []int{k, n}
					if transA {
						aShape = []int{k, m}
					}
					if transB {
						bShape = []int{n, k}
					}
					a, b := fill(aShape...), fill(bShape...)
					// Zero one of A's entries outright, so the skip runs.
					a.Data[r.Intn(len(a.Data))] = 0
					want, err := refMatMul(a, b, transA, transB)
					if err != nil {
						t.Fatal(err)
					}
					got, err := MatMul(a, b, transA, transB)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want.Data {
						if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
							t.Fatalf("m%d k%d n%d transA=%v transB=%v: c[%d] = %g (%#08x), want %g (%#08x)",
								m, k, n, transA, transB, i, got.Data[i], math.Float32bits(got.Data[i]),
								want.Data[i], math.Float32bits(want.Data[i]))
						}
					}
				}
			}
		}
	}
}

// BenchmarkMatMul times C = A·B and C = A·Bᵀ at the shape of the STN
// classifier's first dense layer's input gradient, dc·Wᵀ: 8×50 times
// 50×320.
func BenchmarkMatMul(b *testing.B) {
	const m, k, n = 8, 50, 320
	r := rand.New(rand.NewSource(1))
	a := Randn(r, 1, m, k)
	for _, transB := range []bool{false, true} {
		bm := Randn(r, 1, k, n)
		if transB {
			bm = Randn(r, 1, n, k)
		}
		b.Run(fmt.Sprintf("transB=%v", transB), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := MatMul(a, bm, false, transB)
				if err != nil {
					b.Fatal(err)
				}
				convBenchSink = c
			}
		})
	}
}

func TestMatMulErrors(t *testing.T) {
	if _, err := MatMul(New(2, 3), New(4, 5), false, false); err == nil {
		t.Error("inner mismatch")
	}
	if _, err := MatMul(New(2), New(2, 2), false, false); err == nil {
		t.Error("1-D input")
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	x := Randn(rand.New(rand.NewSource(2)), 1, 1, 1, 5, 5)
	w := New(1, 1, 1, 1)
	w.Data[0] = 1
	y, err := Conv2D(x, w, nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatal("1x1 identity conv should copy")
		}
	}
}

func TestConv2DKnown(t *testing.T) {
	// 3x3 input, 2x2 kernel of ones, stride 1, no pad: sliding sums.
	x, _ := FromData([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 1, 3, 3)
	w, _ := FromData([]float32{1, 1, 1, 1}, 1, 1, 2, 2)
	b, _ := FromData([]float32{10}, 1)
	y, err := Conv2D(x, w, b, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{1 + 2 + 4 + 5 + 10, 2 + 3 + 5 + 6 + 10, 4 + 5 + 7 + 8 + 10, 5 + 6 + 8 + 9 + 10}
	for i, v := range want {
		if y.Data[i] != v {
			t.Errorf("y[%d] = %g, want %g", i, y.Data[i], v)
		}
	}
	if y.Shape[2] != 2 || y.Shape[3] != 2 {
		t.Errorf("shape %v", y.Shape)
	}
}

func TestConv2DGradsNumerically(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	x := Randn(r, 1, 2, 3, 4, 4)
	w := Randn(r, 0.5, 2, 3, 3, 3)
	stride, pad := 1, 1
	y, err := Conv2D(x, w, nil, stride, pad)
	if err != nil {
		t.Fatal(err)
	}
	dy := Randn(r, 1, y.Shape...)
	dx, dw, _, err := Conv2DGrads(x, w, dy, stride, pad, true, true)
	if err != nil {
		t.Fatal(err)
	}
	loss := func() float64 {
		y, err := Conv2D(x, w, nil, stride, pad)
		if err != nil {
			t.Fatal(err)
		}
		var s float64
		for i := range y.Data {
			s += float64(y.Data[i] * dy.Data[i])
		}
		return s
	}
	const eps = 1e-3
	// Check a few x gradients by central differences.
	for _, idx := range []int{0, 7, 23, len(x.Data) - 1} {
		orig := x.Data[idx]
		x.Data[idx] = orig + eps
		up := loss()
		x.Data[idx] = orig - eps
		dn := loss()
		x.Data[idx] = orig
		num := (up - dn) / (2 * eps)
		if !almost(num, float64(dx.Data[idx]), 2e-2) {
			t.Errorf("dx[%d]: numeric %g vs analytic %g", idx, num, dx.Data[idx])
		}
	}
	for _, idx := range []int{0, 13, len(w.Data) - 1} {
		orig := w.Data[idx]
		w.Data[idx] = orig + eps
		up := loss()
		w.Data[idx] = orig - eps
		dn := loss()
		w.Data[idx] = orig
		num := (up - dn) / (2 * eps)
		if !almost(num, float64(dw.Data[idx]), 2e-2) {
			t.Errorf("dw[%d]: numeric %g vs analytic %g", idx, num, dw.Data[idx])
		}
	}
}

func TestConvTranspose2DInvertsStride(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	x := Randn(r, 1, 1, 2, 4, 4)
	w := Randn(r, 1, 2, 3, 4, 4) // (C=2, F=3, 4, 4)
	y, err := ConvTranspose2D(x, w, nil, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// (4-1)*2 - 2 + 4 = 8: the DCGAN upsampling shape rule.
	if y.Shape[2] != 8 || y.Shape[3] != 8 || y.Shape[1] != 3 {
		t.Errorf("convT shape %v", y.Shape)
	}
}

func TestConvTranspose2DGradsNumerically(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	x := Randn(r, 1, 1, 2, 3, 3)
	w := Randn(r, 0.5, 2, 2, 2, 2)
	y, err := ConvTranspose2D(x, w, nil, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	dy := Randn(r, 1, y.Shape...)
	dx, dw, _, err := ConvTranspose2DGrads(x, w, dy, 2, 0, true, true)
	if err != nil {
		t.Fatal(err)
	}
	loss := func() float64 {
		y, _ := ConvTranspose2D(x, w, nil, 2, 0)
		var s float64
		for i := range y.Data {
			s += float64(y.Data[i] * dy.Data[i])
		}
		return s
	}
	const eps = 1e-3
	for _, idx := range []int{0, 5, len(x.Data) - 1} {
		orig := x.Data[idx]
		x.Data[idx] = orig + eps
		up := loss()
		x.Data[idx] = orig - eps
		dn := loss()
		x.Data[idx] = orig
		if num := (up - dn) / (2 * eps); !almost(num, float64(dx.Data[idx]), 2e-2) {
			t.Errorf("convT dx[%d]: numeric %g vs analytic %g", idx, num, dx.Data[idx])
		}
	}
	for _, idx := range []int{0, 7, len(w.Data) - 1} {
		orig := w.Data[idx]
		w.Data[idx] = orig + eps
		up := loss()
		w.Data[idx] = orig - eps
		dn := loss()
		w.Data[idx] = orig
		if num := (up - dn) / (2 * eps); !almost(num, float64(dw.Data[idx]), 2e-2) {
			t.Errorf("convT dw[%d]: numeric %g vs analytic %g", idx, num, dw.Data[idx])
		}
	}
}

func TestMaxPool2D(t *testing.T) {
	x, _ := FromData([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	y, arg, err := MaxPool2D(x, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{6, 8, 14, 16}
	for i, v := range want {
		if y.Data[i] != v {
			t.Errorf("pool[%d] = %g, want %g", i, y.Data[i], v)
		}
	}
	// Argmax of 6 is index 5.
	if arg[0] != 5 {
		t.Errorf("arg[0] = %d", arg[0])
	}
	if _, _, err := MaxPool2D(New(2, 2), 2, 2); err == nil {
		t.Error("2-D input should fail")
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	x := Randn(r, 3, 4, 7)
	s, err := Softmax(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		var sum float64
		for j := 0; j < 7; j++ {
			v := float64(s.Data[i*7+j])
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of range: %g", v)
			}
			sum += v
		}
		if !almost(sum, 1, 1e-5) {
			t.Errorf("row %d sums to %g", i, sum)
		}
	}
	// Numerical stability for large logits.
	big, _ := FromData([]float32{1000, 1000}, 1, 2)
	s, _ = Softmax(big)
	if !almost(float64(s.Data[0]), 0.5, 1e-6) {
		t.Error("softmax overflow")
	}
}

// Property: MatMul distributes over addition: (A+B)C = AC + BC.
func TestMatMulDistributive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := Randn(r, 1, 3, 4)
		b := Randn(r, 1, 3, 4)
		c := Randn(r, 1, 4, 2)
		ab := a.Clone()
		if err := ab.AddScaled(b, 1); err != nil {
			return false
		}
		left, err := MatMul(ab, c, false, false)
		if err != nil {
			return false
		}
		ac, _ := MatMul(a, c, false, false)
		bc, _ := MatMul(b, c, false, false)
		for i := range left.Data {
			if !almost(float64(left.Data[i]), float64(ac.Data[i]+bc.Data[i]), 1e-4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConvShape(t *testing.T) {
	if ConvShape(32, 3, 1, 1) != 32 {
		t.Error("same-pad conv")
	}
	if ConvShape(32, 4, 2, 1) != 16 {
		t.Error("stride-2 conv")
	}
}
