package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// convSpecials are the values the differential test injects: both signed
// zeros, values in and near the denormal range, and both infinities. They
// decide the sign of zero sums, whether a g == 0 / x == 0 skip is visible,
// and where 0·Inf or Inf−Inf turns an accumulator into NaN.
var convSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	1e-30, -1e-30, 1e-40, -1e-40, math.SmallestNonzeroFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)),
}

// convCase is one random convolution problem.
type convCase struct {
	n, c, f, h, w, kh, kw, stride, pad int
	special                            int // 0 plain, 1 zeros and denormals, 2 also ±Inf
}

func (cc convCase) String() string {
	return fmt.Sprintf("n%d c%d f%d %dx%d k%dx%d s%d p%d special%d",
		cc.n, cc.c, cc.f, cc.h, cc.w, cc.kh, cc.kw, cc.stride, cc.pad, cc.special)
}

// randConvCase draws a shape with stride 1-3, pad 0-2, kernels 1-5,
// channel/filter counts up to 17, past several of the kernels' 4-wide
// tiles, so full and partly padded tiles both run, and 1-3 samples, so
// the kernels' pairs of blocks run with and without an odd last one.
func randConvCase(r *rand.Rand) convCase {
	cc := convCase{
		n: 1 + r.Intn(3), c: 1 + r.Intn(17), f: 1 + r.Intn(17),
		kh: 1 + r.Intn(5), kw: 1 + r.Intn(5),
		stride: 1 + r.Intn(3), pad: r.Intn(3), special: r.Intn(3),
	}
	// Input at least as large as the kernel after padding, so the output
	// is never empty.
	cc.h = max(1, cc.kh-2*cc.pad) + r.Intn(8)
	cc.w = max(1, cc.kw-2*cc.pad) + r.Intn(8)
	return cc
}

// fill returns a tensor of N(0,1) values; in special modes about a quarter
// of the elements are replaced by zeros and denormals, and in mode 2 a few
// by infinities.
func (cc convCase) fill(r *rand.Rand, shape ...int) *Tensor {
	t := Randn(r, 1, shape...)
	if cc.special == 0 {
		return t
	}
	finite := convSpecials[:7]
	for i := range t.Data {
		if r.Intn(4) == 0 {
			t.Data[i] = finite[r.Intn(len(finite))]
		}
	}
	if cc.special == 2 {
		for k := 0; k < 1+r.Intn(2); k++ {
			t.Data[r.Intn(len(t.Data))] = convSpecials[7+r.Intn(2)]
		}
	}
	return t
}

// sameBits reports the first element whose bit pattern differs.
func sameBits(t *testing.T, what string, cc convCase, got, want *Tensor) {
	t.Helper()
	if !SameShape(got, want) {
		t.Fatalf("%v: %s shape %v, want %v", cc, what, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%v: %s[%d] = %g (%#08x), want %g (%#08x)", cc, what, i,
				got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

func convCases() int {
	if testing.Short() {
		return 300
	}
	return 1500
}

// checkConv runs the convolution of cc, or its transposed convolution,
// and the gradients through the kernels and through the reference nests,
// with and without bias, and compares every output bit for bit.
func checkConv(t *testing.T, r *rand.Rand, cc convCase, transposed bool) {
	t.Helper()
	fwd, grads, refFwd, refGrads := Conv2D, Conv2DGrads, refConv2D, refConv2DGrads
	wShape := []int{cc.f, cc.c, cc.kh, cc.kw}
	if transposed {
		fwd, grads, refFwd, refGrads = ConvTranspose2D, ConvTranspose2DGrads, refConvTranspose2D, refConvTranspose2DGrads
		wShape = []int{cc.c, cc.f, cc.kh, cc.kw}
		// The output, (h-1)*stride - 2*pad + k, must not be empty.
		for (cc.h-1)*cc.stride-2*cc.pad+cc.kh <= 0 {
			cc.h++
		}
		for (cc.w-1)*cc.stride-2*cc.pad+cc.kw <= 0 {
			cc.w++
		}
	}
	x := cc.fill(r, cc.n, cc.c, cc.h, cc.w)
	w := cc.fill(r, wShape...)
	var b *Tensor
	if r.Intn(2) == 0 {
		b = cc.fill(r, cc.f)
	}
	want, err := refFwd(x, w, b, cc.stride, cc.pad)
	if err != nil {
		t.Fatalf("%v: %v", cc, err)
	}
	got, err := fwd(x, w, b, cc.stride, cc.pad)
	if err != nil {
		t.Fatalf("%v: %v", cc, err)
	}
	sameBits(t, "y", cc, got, want)

	dy := cc.fill(r, want.Shape...)
	wdx, wdw, wdb, err := refGrads(x, w, dy, cc.stride, cc.pad)
	if err != nil {
		t.Fatalf("%v: %v", cc, err)
	}
	dx, dw, db, err := grads(x, w, dy, cc.stride, cc.pad, true, true)
	if err != nil {
		t.Fatalf("%v: %v", cc, err)
	}
	sameBits(t, "dx", cc, dx, wdx)
	sameBits(t, "dw", cc, dw, wdw)
	sameBits(t, "db", cc, db, wdb)

	// A gradient asked for alone is the full computation's, bit for bit;
	// one not asked for is nil.
	for _, need := range [][2]bool{{true, false}, {false, true}, {false, false}} {
		gx, gw, gb, err := grads(x, w, dy, cc.stride, cc.pad, need[0], need[1])
		if err != nil {
			t.Fatalf("%v: %v", cc, err)
		}
		for _, g := range []struct {
			name      string
			need      bool
			got, full *Tensor
		}{{"dx", need[0], gx, dx}, {"dw", need[1], gw, dw}, {"db", true, gb, db}} {
			switch {
			case g.need:
				sameBits(t, g.name+" alone", cc, g.got, g.full)
			case g.got != nil:
				t.Fatalf("%v: %s computed though not asked for", cc, g.name)
			}
		}
	}
}

// TestConvBiasGrad holds the shared bias reduction to both reference
// nests, the one that skips zero dy and the one that adds every dy, on
// filters of signed zeros, infinities, denormals and a NaN. Every NaN has
// one payload: which of two NaN operands an add returns depends on the
// operand order, which Go leaves to the compiler.
func TestConvBiasGrad(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	inf := float32(math.Inf(1))
	nan := math.Float32frombits(0x7fc00001)
	filters := [][]float32{
		{negZero, negZero, negZero, negZero, negZero, negZero, negZero, negZero},
		{negZero, 0, negZero, 0, 0, negZero, 0, negZero},
		{negZero, 1.5, negZero, -1.5, 0, negZero, 2, 0},
		{negZero, nan, 0, 1, negZero, nan, 0, -1},
		{inf, negZero, -inf, 0, 1, negZero, 0, 2},
		{0, 1e-40, negZero, -1e-40, 1e-30, negZero, -1e-30, 0},
	}
	n, f := 2, len(filters)
	dy := New(n, f, 2, 2)
	for fi, vals := range filters {
		for ni := 0; ni < n; ni++ {
			copy(dy.Data[(ni*f+fi)*4:], vals[ni*4:ni*4+4])
		}
	}
	cc := convCase{n: n, c: 1, f: f, h: 2, w: 2, kh: 1, kw: 1, stride: 1}
	x := New(n, 1, 2, 2)
	_, _, skipDB, _ := refConv2DGrads(x, New(f, 1, 1, 1), dy, 1, 0)
	_, _, addDB, _ := refConvTranspose2DGrads(x, New(1, f, 1, 1), dy, 1, 0)
	db := convBiasGrad(dy)
	sameBits(t, "db vs skipping nest", cc, db, skipDB)
	sameBits(t, "db vs adding nest", cc, db, addDB)
	if math.Float32bits(db.Data[0]) != 0 || math.Float32bits(db.Data[1]) != 0 {
		t.Errorf("sums of signed zeros = %g, %g, want +0", db.Data[0], db.Data[1])
	}
	if !math.IsNaN(float64(db.Data[3])) || !math.IsNaN(float64(db.Data[4])) {
		t.Errorf("NaN and Inf-Inf sums = %g, %g, want NaN", db.Data[3], db.Data[4])
	}
}

// TestConvSkipFallbacks holds the kernels to the reference nests on fixed
// cases where skipping a zero term is visible, so only the skipping sum
// matches: a zero dy against ±Inf and against NaN weights (dx), a zero dy
// against ±Inf inputs (dw), and a -0 bias over an all-zero input
// (ConvTranspose2D). Three samples run a pair of blocks and an odd one.
func TestConvSkipFallbacks(t *testing.T) {
	inf, nan := float32(math.Inf(1)), math.Float32frombits(0x7fc00001)
	negZero := float32(math.Copysign(0, -1))
	cc := convCase{n: 3, c: 6, f: 5, h: 5, w: 5, kh: 3, kw: 3, stride: 1, pad: 1}
	at := func(t *Tensor, i, j, k, l int) *float32 {
		return &t.Data[((i*t.Shape[1]+j)*t.Shape[2]+k)*t.Shape[3]+l]
	}
	zero := func(t *Tensor, i, j int) { // clears plane (i, j)
		hw := t.Shape[2] * t.Shape[3]
		clear(t.Data[(i*t.Shape[1]+j)*hw:][:hw])
	}
	grads := func(name string, x, w, dy *Tensor) {
		t.Run(name, func(t *testing.T) {
			wdx, wdw, wdb, _ := refConv2DGrads(x, w, dy, cc.stride, cc.pad)
			dx, dw, db, err := Conv2DGrads(x, w, dy, cc.stride, cc.pad, true, true)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "dx", cc, dx, wdx)
			sameBits(t, "dw", cc, dw, wdw)
			sameBits(t, "db", cc, db, wdb)
			// Every non-finite operand meets only zero dy, so the skipping
			// sums are finite, and adding those terms would make them NaN.
			for _, g := range []*Tensor{dx, dw} {
				if slices.ContainsFunc(g.Data, func(v float32) bool { return v != v }) {
					t.Fatal("NaN gradient, want every non-finite term skipped")
				}
			}
		})
	}
	r := rand.New(rand.NewSource(23))
	fresh := func() (x, w, dy *Tensor) {
		return Randn(r, 1, cc.n, cc.c, cc.h, cc.w), Randn(r, 1, cc.f, cc.c, cc.kh, cc.kw), Randn(r, 1, cc.n, cc.f, cc.h, cc.w)
	}

	x, w, dy := fresh()
	*at(w, 1, 2, 1, 1), *at(w, 1, 4, 0, 2) = inf, -inf
	for ni := 0; ni < cc.n; ni++ {
		zero(dy, ni, 1)
	}
	grads("dx_zero_dy_at_inf_w", x, w, dy)

	x, w, dy = fresh()
	*at(w, 3, 0, 2, 2) = nan
	for ni := 0; ni < cc.n; ni++ {
		zero(dy, ni, 3)
	}
	grads("dx_zero_dy_at_nan_w", x, w, dy)

	x, w, dy = fresh()
	*at(x, 1, 2, 2, 2), *at(x, 2, 5, 0, 4) = inf, -inf
	for fi := 0; fi < cc.f; fi++ {
		zero(dy, 1, fi)
		zero(dy, 2, fi)
	}
	grads("dw_zero_dy_at_inf_x", x, w, dy)

	// ConvTranspose2D: y starts at the bias and skips zero x, so filter 2
	// of an all-zero input stays at its -0 bias; adding 0·w would make it
	// +0 wherever w > 0.
	t.Run("convT_neg_zero_bias_zero_x", func(t *testing.T) {
		x := New(cc.n, cc.c, cc.h, cc.w)
		w := Randn(r, 1, cc.c, cc.f, cc.kh, cc.kw)
		b := Randn(r, 1, cc.f)
		b.Data[2] = negZero
		want, _ := refConvTranspose2D(x, w, b, cc.stride, cc.pad)
		got, err := ConvTranspose2D(x, w, b, cc.stride, cc.pad)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "y", cc, got, want)
		if y := *at(got, 2, 2, 0, 0); math.Float32bits(y) != math.Float32bits(negZero) {
			t.Fatalf("y[2, 2, 0, 0] = %g, want the -0 bias", y)
		}
	})
}

// TestConvSumsRangeGuard holds convSums to its range proof. With the
// scalar or the lane operand one element short it panics with a runtime
// index error, though the missing element lies within the slice's
// capacity, where a kernel left to check nothing would read it silently.
// Three blocks run a pair and an odd one.
func TestConvSumsRangeGuard(t *testing.T) {
	const blocks, rows, nb, ss, vs = 3, 4, 2, 6 * 6, 4 * 4
	ax := convAxis{in: 6, out: 3, k: 4, stride: 2, pad: 1}
	tab := newConvTable(ax, ax, perOut)
	ds := nb * ss
	needS, needV := 0, 0
	for _, at := range tab.pos {
		for _, tm := range tab.class[at.class] {
			needS = max(needS, (blocks-1)*ds+int(at.s)+(nb-1)*ss+int(tm.s)+1)
			needV = max(needV, int(at.v)+(nb-1)*vs+int(tm.v)+1)
		}
	}
	r := rand.New(rand.NewSource(31))
	s := Randn(r, 1, needS).Data
	v := make([][convTile]float32, needV)
	for i := range v {
		copy(v[i][:], Randn(r, 1, convTile).Data)
	}
	run := func(s []float32, v [][convTile]float32) (err error) {
		defer func() {
			if e := recover(); e != nil {
				re, ok := e.(runtime.Error)
				if !ok {
					panic(e)
				}
				err = re
			}
		}()
		out := make([]float32, blocks*rows*len(tab.pos))
		convSums(tab, [convTile]float32{}, s, ds, ss, v, vs, nb, false, out, rows, 0)
		return nil
	}
	if err := run(s, v); err != nil {
		t.Fatalf("operands of exactly the length read: %v", err)
	}
	for _, c := range []struct {
		name string
		s    []float32
		v    [][convTile]float32
	}{{"scalar", s[:needS-1], v}, {"lane", s, v[:needV-1]}} {
		if err := run(c.s, c.v); err == nil || !strings.Contains(err.Error(), "index out of range") {
			t.Errorf("%s operand one element short: got %v, want an index out of range panic", c.name, err)
		}
	}
}

// TestConvSumsDegenerate holds the sums that add no term to init, bit for
// bit: every sum when there are no blocks (nb = 0), and the sums of
// positions no tap reaches, which a stride longer than the kernel leaves
// in the transposed convolution (an empty class).
func TestConvSumsDegenerate(t *testing.T) {
	const blocks, rows, ss, vs = 3, 4, 2 * 2, 1
	negZero := float32(math.Copysign(0, -1))
	init := [convTile]float32{1.5, negZero, -3, 1e-40}
	ax := convAxis{in: 5, out: 2, k: 1, stride: 3, pad: 0}
	tab := newConvTable(ax, ax, perIn)
	empty := 0
	for _, at := range tab.pos {
		if len(tab.class[at.class]) == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatal("no position without terms")
	}
	r := rand.New(rand.NewSource(37))
	for _, nb := range []int{0, 2} {
		s := Randn(r, 1, blocks*max(nb, 1)*ss).Data
		v := make([][convTile]float32, max(nb, 1)*vs)
		for i := range v {
			copy(v[i][:], Randn(r, 1, convTile).Data)
		}
		for _, skip := range []bool{false, true} {
			out := make([]float32, blocks*rows*len(tab.pos))
			convSums(tab, init, s, nb*ss, ss, v, vs, nb, skip, out, rows, 0)
			for p, at := range tab.pos {
				if nb > 0 && len(tab.class[at.class]) > 0 {
					continue
				}
				for b := 0; b < blocks; b++ {
					for j, want := range init {
						got := out[(b*rows+j)*len(tab.pos)+p]
						if math.Float32bits(got) != math.Float32bits(want) {
							t.Errorf("nb %d skip %v: block %d position %d lane %d = %g, want init %g", nb, skip, b, p, j, got, want)
						}
					}
				}
			}
		}
	}
}

// TestConv2DBitIdentical holds Conv2D and Conv2DGrads bit-identical to the
// reference nests on random shapes and on the study's own, including
// signed zeros, denormals and infinities in x, w, b and dy.
func TestConv2DBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < convCases(); i++ {
		checkConv(t, r, randConvCase(r), false)
	}
	for _, s := range convBenchShapes {
		checkConv(t, r, s.convCase(), false)
	}
	// A Tango AlexNet layer: an 11x11 kernel, mostly clipped at the border.
	checkConv(t, r, convShape{"AN_conv1", 1, 3, 24, 56, 11, 1, 5}.convCase(), false)
}

// TestConvTranspose2DBitIdentical is the same differential check for the
// transposed convolution and its gradients.
func TestConvTranspose2DBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for i := 0; i < convCases(); i++ {
		checkConv(t, r, randConvCase(r), true)
	}
	for _, s := range convTBenchShapes {
		checkConv(t, r, s.convCase(), true)
	}
}

// convShape is one convolution layer of the study's ML workloads at the
// batch size it trains with.
type convShape struct {
	name                          string
	n, c, f, size, k, stride, pad int
}

// convBenchShapes are the convolutions of the DCGAN discriminator (DCG),
// the DQN of RFL, the VGG-style extractor of NST and the classifier of SPT.
var convBenchShapes = []convShape{
	{"DCG_d1_3x32x32_k4s2", 8, 3, 24, 32, 4, 2, 1},
	{"DCG_d2_24x16x16_k4s2", 8, 24, 48, 16, 4, 2, 1},
	{"DCG_d3_48x8x8_k4s2", 8, 48, 96, 8, 4, 2, 1},
	{"DCG_d4_96x4x4_k4s1", 8, 96, 1, 4, 4, 1, 0},
	{"RFL_c1_4x20x20_k4s2", 16, 4, 16, 20, 4, 2, 1},
	{"RFL_c2_16x10x10_k4s2", 16, 16, 32, 10, 4, 2, 1},
	{"RFL_c3_32x5x5_k3s1", 16, 32, 32, 5, 3, 1, 1},
	{"NST_16x32x32_k3s1", 1, 16, 16, 32, 3, 1, 1},
	{"SPT_10x8x8_k5s1", 8, 10, 20, 8, 5, 1, 2},
}

// convTBenchShapes are the transposed convolutions of the DCGAN generator.
var convTBenchShapes = []convShape{
	{"DCG_g1_32x1x1_k4s1", 8, 32, 64, 1, 4, 1, 0},
	{"DCG_g2_64x4x4_k4s2", 8, 64, 32, 4, 4, 2, 1},
	{"DCG_g3_32x8x8_k4s2", 8, 32, 16, 8, 4, 2, 1},
	{"DCG_g4_16x16x16_k4s2", 8, 16, 3, 16, 4, 2, 1},
}

// convCase is the layer as a differential-test case. Its values are
// plain: the random cases inject the special ones, and denormal
// arithmetic at these sizes makes the test several times slower.
func (s convShape) convCase() convCase {
	return convCase{n: s.n, c: s.c, f: s.f, h: s.size, w: s.size, kh: s.k, kw: s.k, stride: s.stride, pad: s.pad}
}

var convBenchSink *Tensor

// convBenchSets is the number of independent operand sets benchConv
// cycles through.
const convBenchSets = 8

// benchConv runs op once per iteration for every shape, on N(0,1) inputs:
// x (n, c, size, size), the weights, and a dy shaped like the layer's
// output with about the fraction zero of its values set to 0, as a ReLU
// zeroes the gradient of its inactive units. A transposed layer's weights
// are (c, f, k, k). Iterations cycle through convBenchSets independent
// draws of (x, w, dy), so a data-dependent branch is not timed on one
// pattern the branch predictor has learned: the study never repeats an
// operand.
func benchConv(b *testing.B, shapes []convShape, transposed bool, zero float64, op func(s convShape, x, w, dy *Tensor) (*Tensor, error)) {
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			wShape, out := []int{s.f, s.c, s.k, s.k}, ConvShape(s.size, s.k, s.stride, s.pad)
			if transposed {
				wShape, out = []int{s.c, s.f, s.k, s.k}, (s.size-1)*s.stride-2*s.pad+s.k
			}
			r := rand.New(rand.NewSource(1))
			var xs, ws, dys [convBenchSets]*Tensor
			for k := range xs {
				xs[k] = Randn(r, 1, s.n, s.c, s.size, s.size)
				ws[k] = Randn(r, 0.1, wShape...)
				dys[k] = Randn(r, 1, s.n, s.f, out, out)
				for i := range dys[k].Data {
					if r.Float64() < zero {
						dys[k].Data[i] = 0
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % convBenchSets
				y, err := op(s, xs[k], ws[k], dys[k])
				if err != nil {
					b.Fatal(err)
				}
				convBenchSink = y
			}
		})
	}
}

func BenchmarkConv2D(b *testing.B) {
	benchConv(b, convBenchShapes, false, 0, func(s convShape, x, w, _ *Tensor) (*Tensor, error) {
		return Conv2D(x, w, nil, s.stride, s.pad)
	})
}

// BenchmarkConv2DGrads times the input and the weight gradient apart, as
// a layer whose weights or input need no gradient computes one alone,
// each on a dense dy and on one with 60% zeros, the sparsity range
// (41-86%) of the ReLU layers' gradients in the study.
func BenchmarkConv2DGrads(b *testing.B) {
	for _, d := range []struct {
		suffix string
		zero   float64
	}{{"", 0}, {"_relu60", 0.6}} {
		b.Run("dx"+d.suffix, func(b *testing.B) {
			benchConv(b, convBenchShapes, false, d.zero, func(s convShape, x, w, dy *Tensor) (*Tensor, error) {
				dx, _, _, err := Conv2DGrads(x, w, dy, s.stride, s.pad, true, false)
				return dx, err
			})
		})
		b.Run("dw"+d.suffix, func(b *testing.B) {
			benchConv(b, convBenchShapes, false, d.zero, func(s convShape, x, w, dy *Tensor) (*Tensor, error) {
				_, dw, _, err := Conv2DGrads(x, w, dy, s.stride, s.pad, false, true)
				return dw, err
			})
		})
	}
}

func BenchmarkConvTranspose2D(b *testing.B) {
	benchConv(b, convTBenchShapes, true, 0, func(s convShape, x, w, _ *Tensor) (*Tensor, error) {
		return ConvTranspose2D(x, w, nil, s.stride, s.pad)
	})
}

// BenchmarkConvTranspose2DGrads times the input and the weight gradient
// of the transposed convolution apart.
func BenchmarkConvTranspose2DGrads(b *testing.B) {
	b.Run("dx", func(b *testing.B) {
		benchConv(b, convTBenchShapes, true, 0, func(s convShape, x, w, dy *Tensor) (*Tensor, error) {
			dx, _, _, err := ConvTranspose2DGrads(x, w, dy, s.stride, s.pad, true, false)
			return dx, err
		})
	})
	b.Run("dw", func(b *testing.B) {
		benchConv(b, convTBenchShapes, true, 0, func(s convShape, x, w, dy *Tensor) (*Tensor, error) {
			_, dw, _, err := ConvTranspose2DGrads(x, w, dy, s.stride, s.pad, false, true)
			return dw, err
		})
	})
}
