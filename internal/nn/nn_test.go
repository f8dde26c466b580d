package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gpu"
	"repro/internal/profiler"
	"repro/internal/tensor"
)

func device(t *testing.T) *Device {
	t.Helper()
	d, err := gpu.New(gpu.RTX3080())
	if err != nil {
		t.Fatal(err)
	}
	s := profiler.NewSession(d)
	t.Cleanup(func() {
		if err := s.Err(); err != nil {
			t.Errorf("launch failed: %v", err)
		}
	})
	return NewDevice(s, 1, 42)
}

// Session returns the underlying profiling session, whose launches the
// tests inspect.
func (d *Device) Session() *profiler.Session { return d.sess }

// MulElem returns the Hadamard product: a loss-building helper for the
// gradient checks.
func MulElem(a, b *V) (*V, error) {
	if !tensor.SameShape(a.T, b.T) {
		return nil, fmt.Errorf("nn: mul shapes %v vs %v", a.T.Shape, b.T.Shape)
	}
	d := a.dev
	out := tensor.New(a.T.Shape...)
	for i := range out.Data {
		out.Data[i] = a.T.Data[i] * b.T.Data[i]
	}
	d.emitElementwise("elementwise_mul", out.Numel(), 1, 0, 2, 1)
	return d.newNode(out, func(o *V) {
		d.emitElementwise("elementwise_mul_bwd", out.Numel(), 2, 0, 3, 2)
		if a.needGrad {
			g := tensor.New(a.T.Shape...)
			for i := range g.Data {
				g.Data[i] = o.Grad.Data[i] * b.T.Data[i]
			}
			a.addGrad(g)
		}
		if b.needGrad {
			g := tensor.New(b.T.Shape...)
			for i := range g.Data {
				g.Data[i] = o.Grad.Data[i] * a.T.Data[i]
			}
			b.addGrad(g)
		}
	}, a, b), nil
}

// Mean returns the scalar mean of x: the scalar loss of the gradient
// checks.
func Mean(x *V) *V {
	d := x.dev
	n := float32(x.T.Numel())
	out := tensor.New(1)
	var sum float32
	for _, v := range x.T.Data {
		sum += v
	}
	out.Data[0] = sum / n
	d.emitReduce("reduce_mean", x.T.Numel())
	return d.newNode(out, func(o *V) {
		if x.needGrad {
			g := tensor.Full(o.Grad.Data[0]/n, x.T.Shape...)
			x.addGrad(g)
		}
	}, x)
}

// gradCheck verifies d(loss)/d(param) for selected indices via central
// differences, where buildLoss recomputes the scalar loss from scratch.
func gradCheck(t *testing.T, name string, param *tensor.Tensor, analytic *tensor.Tensor,
	buildLoss func() float64, indices []int) {
	t.Helper()
	const eps = 1e-2
	for _, idx := range indices {
		orig := param.Data[idx]
		param.Data[idx] = orig + eps
		up := buildLoss()
		param.Data[idx] = orig - eps
		dn := buildLoss()
		param.Data[idx] = orig
		num := (up - dn) / (2 * eps)
		got := float64(analytic.Data[idx])
		tol := 2e-2 * math.Max(1, math.Abs(num))
		if math.Abs(num-got) > tol {
			t.Errorf("%s: grad[%d] numeric %g vs analytic %g", name, idx, num, got)
		}
	}
}

func TestBackwardRequiresScalar(t *testing.T) {
	d := device(t)
	v := d.Param(tensor.New(2, 2))
	if err := v.Backward(); err == nil {
		t.Error("non-scalar backward should fail")
	}
}

func TestMatMulGradients(t *testing.T) {
	d := device(t)
	a := d.Param(tensor.Randn(d.RNG, 1, 3, 4))
	b := d.Param(tensor.Randn(d.RNG, 1, 4, 2))
	loss := func() float64 {
		c, err := tensor.MatMul(a.T, b.T, false, false)
		if err != nil {
			t.Fatal(err)
		}
		var s float64
		for _, v := range c.Data {
			s += float64(v) / float64(c.Numel())
		}
		return s
	}
	c, err := MatMul(a, b, false, false)
	if err != nil {
		t.Fatal(err)
	}
	out := Mean(c)
	if err := out.Backward(); err != nil {
		t.Fatal(err)
	}
	gradCheck(t, "matmul-a", a.T, a.Grad, loss, []int{0, 5, 11})
	gradCheck(t, "matmul-b", b.T, b.Grad, loss, []int{0, 3, 7})
}

func TestMatMulTransposedGradients(t *testing.T) {
	d := device(t)
	for _, tc := range []struct{ tA, tB bool }{{true, false}, {false, true}} {
		a := d.Param(tensor.Randn(d.RNG, 1, 4, 3))
		b := d.Param(tensor.Randn(d.RNG, 1, 4, 3))
		loss := func() float64 {
			c, err := tensor.MatMul(a.T, b.T, tc.tA, tc.tB)
			if err != nil {
				t.Fatal(err)
			}
			var s float64
			for _, v := range c.Data {
				s += float64(v) / float64(c.Numel())
			}
			return s
		}
		c, err := MatMul(a, b, tc.tA, tc.tB)
		if err != nil {
			t.Fatal(err)
		}
		if err := Mean(c).Backward(); err != nil {
			t.Fatal(err)
		}
		gradCheck(t, "matmulT-a", a.T, a.Grad, loss, []int{0, 7})
		gradCheck(t, "matmulT-b", b.T, b.Grad, loss, []int{1, 10})
	}
}

func TestActivationGradients(t *testing.T) {
	d := device(t)
	cases := []struct {
		name  string
		apply func(*V) *V
	}{
		{"relu", ReLU},
		{"lrelu", func(v *V) *V { return LeakyReLU(v, 0.2) }},
		{"tanh", Tanh},
	}
	for _, tc := range cases {
		x := d.Param(tensor.Randn(d.RNG, 1, 4, 5))
		y := tc.apply(x)
		if err := Mean(y).Backward(); err != nil {
			t.Fatal(err)
		}
		loss := func() float64 {
			xx := d.Const(x.T)
			yy := tc.apply(xx)
			var s float64
			for _, v := range yy.T.Data {
				s += float64(v) / float64(yy.T.Numel())
			}
			return s
		}
		gradCheck(t, tc.name, x.T, x.Grad, loss, []int{0, 9, 19})
	}
}

func TestConvLayerGradients(t *testing.T) {
	d := device(t)
	x := d.Param(tensor.Randn(d.RNG, 1, 2, 2, 6, 6))
	conv := NewConv2d(d, 2, 3, 3, 1, 1)
	forward := func() float64 {
		y, err := tensor.Conv2D(x.T, conv.W.T, conv.B.T, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		var s float64
		for _, v := range y.Data {
			s += float64(v*v) / float64(y.Numel())
		}
		return s
	}
	y, err := conv.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := MulElem(y, y)
	if err != nil {
		t.Fatal(err)
	}
	if err := Mean(sq).Backward(); err != nil {
		t.Fatal(err)
	}
	gradCheck(t, "conv-x", x.T, x.Grad, forward, []int{0, 31, 71})
	gradCheck(t, "conv-w", conv.W.T, conv.W.Grad, forward, []int{0, 25, 53})
	gradCheck(t, "conv-b", conv.B.T, conv.B.Grad, forward, []int{0, 2})
}

func TestConvTransposeLayerGradients(t *testing.T) {
	d := device(t)
	x := d.Param(tensor.Randn(d.RNG, 1, 1, 3, 3, 3))
	deconv := NewConvTranspose2d(d, 3, 2, 4, 2, 1)
	forward := func() float64 {
		y, err := tensor.ConvTranspose2D(x.T, deconv.W.T, deconv.B.T, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		var s float64
		for _, v := range y.Data {
			s += float64(v*v) / float64(y.Numel())
		}
		return s
	}
	y, err := deconv.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := MulElem(y, y)
	if err != nil {
		t.Fatal(err)
	}
	if err := Mean(sq).Backward(); err != nil {
		t.Fatal(err)
	}
	gradCheck(t, "convT-x", x.T, x.Grad, forward, []int{0, 13, 26})
	gradCheck(t, "convT-w", deconv.W.T, deconv.W.Grad, forward, []int{0, 47, 95})
}

func TestBatchNormGradientsAndStats(t *testing.T) {
	d := device(t)
	x := d.Param(tensor.Randn(d.RNG, 2, 2, 3, 4, 4))
	bn := NewBatchNorm2d(d, 3)
	y, err := bn.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	// Output channels are normalized: mean ~0, var ~1 (gamma=1, beta=0).
	n, c, hw := 2, 3, 16
	for ci := 0; ci < c; ci++ {
		var mean, varr float64
		for ni := 0; ni < n; ni++ {
			for i := 0; i < hw; i++ {
				mean += float64(y.T.Data[(ni*c+ci)*hw+i])
			}
		}
		mean /= float64(n * hw)
		for ni := 0; ni < n; ni++ {
			for i := 0; i < hw; i++ {
				dv := float64(y.T.Data[(ni*c+ci)*hw+i]) - mean
				varr += dv * dv
			}
		}
		varr /= float64(n * hw)
		if math.Abs(mean) > 1e-5 || math.Abs(varr-1) > 1e-3 {
			t.Errorf("channel %d: mean %g var %g", ci, mean, varr)
		}
	}
	sq, err := MulElem(y, y)
	if err != nil {
		t.Fatal(err)
	}
	if err := Mean(sq).Backward(); err != nil {
		t.Fatal(err)
	}
	forward := func() float64 {
		xx := d.Const(x.T)
		yy, err := BatchNorm2dOp(xx, d.Const(bn.Gamma.T), d.Const(bn.Beta.T), bn.Eps)
		if err != nil {
			t.Fatal(err)
		}
		var s float64
		for _, v := range yy.T.Data {
			s += float64(v*v) / float64(yy.T.Numel())
		}
		return s
	}
	gradCheck(t, "bn-x", x.T, x.Grad, forward, []int{0, 17, 95})
	gradCheck(t, "bn-gamma", bn.Gamma.T, bn.Gamma.Grad, forward, []int{0, 2})
	gradCheck(t, "bn-beta", bn.Beta.T, bn.Beta.Grad, forward, []int{1})
}

func TestMaxPoolGradient(t *testing.T) {
	d := device(t)
	x := d.Param(tensor.Randn(d.RNG, 1, 1, 1, 4, 4))
	y, err := MaxPool(x, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := Mean(y).Backward(); err != nil {
		t.Fatal(err)
	}
	// Gradient flows only to argmax positions; each gets 1/4.
	var nonzero int
	for _, g := range x.Grad.Data {
		if g != 0 {
			nonzero++
			if math.Abs(float64(g)-0.25) > 1e-6 {
				t.Errorf("pool grad = %g, want 0.25", g)
			}
		}
	}
	if nonzero != 4 {
		t.Errorf("%d nonzero grads, want 4", nonzero)
	}
}

func TestLossGradients(t *testing.T) {
	d := device(t)
	// MSE
	pred := d.Param(tensor.Randn(d.RNG, 1, 3, 3))
	target := tensor.Randn(d.RNG, 1, 3, 3)
	l, err := MSELoss(pred, target)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Backward(); err != nil {
		t.Fatal(err)
	}
	mse := func() float64 {
		var s float64
		for i := range pred.T.Data {
			df := float64(pred.T.Data[i] - target.Data[i])
			s += df * df / float64(pred.T.Numel())
		}
		return s
	}
	gradCheck(t, "mse", pred.T, pred.Grad, mse, []int{0, 4, 8})

	// BCE with logits
	logits := d.Param(tensor.Randn(d.RNG, 1, 4))
	labels := tensor.Full(1, 4)
	labels.Data[1] = 0
	bl, err := BCEWithLogits(logits, labels)
	if err != nil {
		t.Fatal(err)
	}
	if err := bl.Backward(); err != nil {
		t.Fatal(err)
	}
	bce := func() float64 {
		var s float64
		for i := range logits.T.Data {
			z := float64(logits.T.Data[i])
			tt := float64(labels.Data[i])
			s += math.Max(z, 0) - z*tt + math.Log1p(math.Exp(-math.Abs(z)))
		}
		return s / 4
	}
	gradCheck(t, "bce", logits.T, logits.Grad, bce, []int{0, 1, 3})

	// Cross entropy
	lg := d.Param(tensor.Randn(d.RNG, 1, 3, 5))
	lab := []int{1, 4, 0}
	cl, err := CrossEntropy(lg, lab)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Backward(); err != nil {
		t.Fatal(err)
	}
	ce := func() float64 {
		sm, _ := tensor.Softmax(lg.T)
		var s float64
		for i, l := range lab {
			s -= math.Log(float64(sm.Data[i*5+l]))
		}
		return s / 3
	}
	gradCheck(t, "xent", lg.T, lg.Grad, ce, []int{0, 6, 14})
}

func TestCrossEntropyDecreasesWithTraining(t *testing.T) {
	d := device(t)
	lin := NewLinear(d, 4, 3)
	x := tensor.Randn(d.RNG, 1, 8, 4)
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = i % 3
	}
	opt := NewSGD(d, lin.Params(), 0.5, 0.9)
	var first, last float64
	for iter := 0; iter < 60; iter++ {
		logits, err := lin.Forward(d.Const(x))
		if err != nil {
			t.Fatal(err)
		}
		loss, err := CrossEntropy(logits, labels)
		if err != nil {
			t.Fatal(err)
		}
		if iter == 0 {
			first = float64(loss.T.Data[0])
		}
		last = float64(loss.T.Data[0])
		if err := loss.Backward(); err != nil {
			t.Fatal(err)
		}
		opt.Step()
	}
	if last >= first/2 {
		t.Errorf("loss did not train down: %g -> %g", first, last)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	d := device(t)
	p := d.Param(tensor.Full(5, 4))
	target := tensor.New(4)
	opt := NewAdam(d, []*V{p}, 0.2, 0.9)
	for iter := 0; iter < 200; iter++ {
		l, err := MSELoss(p, target)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Backward(); err != nil {
			t.Fatal(err)
		}
		opt.Step()
	}
	for _, v := range p.T.Data {
		if math.Abs(float64(v)) > 0.05 {
			t.Errorf("adam did not converge: %g", v)
		}
	}
}

func TestEmbeddingGradScatter(t *testing.T) {
	d := device(t)
	table := d.Param(tensor.Randn(d.RNG, 1, 6, 3))
	e, err := Embedding(table, []int{2, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := Mean(e).Backward(); err != nil {
		t.Fatal(err)
	}
	// Row 2 used twice: grad 2/9 per element; row 5 once: 1/9; others 0.
	for j := 0; j < 3; j++ {
		if math.Abs(float64(table.Grad.Data[2*3+j])-2.0/9) > 1e-6 {
			t.Errorf("row2 grad %g", table.Grad.Data[2*3+j])
		}
		if math.Abs(float64(table.Grad.Data[5*3+j])-1.0/9) > 1e-6 {
			t.Errorf("row5 grad %g", table.Grad.Data[5*3+j])
		}
		if table.Grad.Data[0*3+j] != 0 {
			t.Error("unused row has gradient")
		}
	}
	if _, err := Embedding(table, []int{9}); err == nil {
		t.Error("out-of-vocab id should fail")
	}
}

func TestGRUCellGradientsAndShapes(t *testing.T) {
	d := device(t)
	cell := NewGRUCell(d, 3, 4)
	x := d.Param(tensor.Randn(d.RNG, 1, 2, 3))
	h := d.Param(tensor.Randn(d.RNG, 1, 2, 4))
	h2, err := cell.Step(x, h)
	if err != nil {
		t.Fatal(err)
	}
	if h2.T.Shape[0] != 2 || h2.T.Shape[1] != 4 {
		t.Fatalf("gru output %v", h2.T.Shape)
	}
	sq, err := MulElem(h2, h2)
	if err != nil {
		t.Fatal(err)
	}
	if err := Mean(sq).Backward(); err != nil {
		t.Fatal(err)
	}
	forward := func() float64 {
		xx, hh := d.Const(x.T), d.Const(h.T)
		c2 := &GRUCell{Wx: d.Const(cell.Wx.T), Wh: d.Const(cell.Wh.T),
			Bx: d.Const(cell.Bx.T), Bh: d.Const(cell.Bh.T), Hidden: 4}
		y, err := c2.Step(xx, hh)
		if err != nil {
			t.Fatal(err)
		}
		var s float64
		for _, v := range y.T.Data {
			s += float64(v*v) / float64(y.T.Numel())
		}
		return s
	}
	gradCheck(t, "gru-x", x.T, x.Grad, forward, []int{0, 5})
	gradCheck(t, "gru-h", h.T, h.Grad, forward, []int{0, 7})
	gradCheck(t, "gru-wx", cell.Wx.T, cell.Wx.Grad, forward, []int{0, 17, 35})
	gradCheck(t, "gru-wh", cell.Wh.T, cell.Wh.Grad, forward, []int{0, 23, 47})
}

func TestAffineGridIdentity(t *testing.T) {
	d := device(t)
	theta := d.Param(tensor.New(1, 2, 3))
	theta.T.Data[0], theta.T.Data[4] = 1, 1 // identity transform
	grid, err := AffineGrid(theta, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Corners map to themselves in normalized coords.
	if grid.T.Data[0] != -1 || grid.T.Data[1] != -1 {
		t.Errorf("top-left = (%g,%g)", grid.T.Data[0], grid.T.Data[1])
	}
	last := grid.T.Numel() - 2
	if grid.T.Data[last] != 1 || grid.T.Data[last+1] != 1 {
		t.Errorf("bottom-right = (%g,%g)", grid.T.Data[last], grid.T.Data[last+1])
	}
}

func TestGridSampleIdentityReproducesInput(t *testing.T) {
	d := device(t)
	x := d.Param(tensor.Randn(d.RNG, 1, 1, 2, 5, 5))
	theta := d.Param(tensor.New(1, 2, 3))
	theta.T.Data[0], theta.T.Data[4] = 1, 1
	grid, err := AffineGrid(theta, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	y, err := GridSample(x, grid)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x.T.Data {
		if math.Abs(float64(y.T.Data[i]-x.T.Data[i])) > 1e-5 {
			t.Fatalf("identity sample differs at %d: %g vs %g", i, y.T.Data[i], x.T.Data[i])
		}
	}
}

func TestSpatialTransformerGradients(t *testing.T) {
	d := device(t)
	x := d.Param(tensor.Randn(d.RNG, 1, 1, 1, 4, 4))
	theta := d.Param(tensor.New(1, 2, 3))
	// Chosen so no sample lands exactly on an integer pixel coordinate,
	// where bilinear interpolation has a kink and numeric gradients are
	// undefined (0.9 scale + 0.1 shift puts the right edge exactly on 3.0).
	theta.T.Data[0], theta.T.Data[4] = 0.85, 0.9
	theta.T.Data[2] = 0.07
	forward := func() float64 {
		tt := d.Const(theta.T)
		g, err := AffineGrid(tt, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		y, err := GridSample(d.Const(x.T), g)
		if err != nil {
			t.Fatal(err)
		}
		var s float64
		for _, v := range y.T.Data {
			s += float64(v*v) / float64(y.T.Numel())
		}
		return s
	}
	g, err := AffineGrid(theta, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	y, err := GridSample(x, g)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := MulElem(y, y)
	if err != nil {
		t.Fatal(err)
	}
	if err := Mean(sq).Backward(); err != nil {
		t.Fatal(err)
	}
	gradCheck(t, "stn-theta", theta.T, theta.Grad, forward, []int{0, 2, 4, 5})
	gradCheck(t, "stn-x", x.T, x.Grad, forward, []int{5, 10})
}

func TestOpsEmitKernels(t *testing.T) {
	d := device(t)
	before := d.Session().LaunchCount()
	a := d.Param(tensor.Randn(d.RNG, 1, 8, 8))
	b := d.Param(tensor.Randn(d.RNG, 1, 8, 8))
	c, err := MatMul(a, b, false, false)
	if err != nil {
		t.Fatal(err)
	}
	_ = ReLU(c)
	if d.Session().LaunchCount() != before+2 {
		t.Errorf("expected 2 kernels, got %d", d.Session().LaunchCount()-before)
	}
	// Backward emits gradient kernels too.
	mid := d.Session().LaunchCount()
	y := Mean(ReLU(c))
	if err := y.Backward(); err != nil {
		t.Fatal(err)
	}
	if d.Session().LaunchCount() <= mid+2 {
		t.Error("backward pass should launch gradient kernels")
	}
	// Kernel names carry shape classes.
	found := false
	for _, l := range d.Session().Launches() {
		if l.Name == "ampere_sgemm_8x8x8_nn" {
			found = true
		}
	}
	if !found {
		t.Error("sgemm kernel name with shape bucket not found")
	}
}

func TestConcatAndSplitGradients(t *testing.T) {
	d := device(t)
	a := d.Param(tensor.Randn(d.RNG, 1, 2, 3))
	b := d.Param(tensor.Randn(d.RNG, 1, 2, 2))
	c, err := Concat2D(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if c.T.Shape[1] != 5 {
		t.Fatalf("concat shape %v", c.T.Shape)
	}
	if err := Mean(c).Backward(); err != nil {
		t.Fatal(err)
	}
	for _, g := range a.Grad.Data {
		if math.Abs(float64(g)-0.1) > 1e-6 {
			t.Errorf("concat grad a = %g, want 0.1", g)
		}
	}
	for _, g := range b.Grad.Data {
		if math.Abs(float64(g)-0.1) > 1e-6 {
			t.Errorf("concat grad b = %g, want 0.1", g)
		}
	}
}

func TestDropout(t *testing.T) {
	d := device(t)
	x := d.Param(tensor.Full(1, 1000))
	// Eval mode: identity.
	if Dropout(x, 0.5, false) != x {
		t.Error("eval-mode dropout should be identity")
	}
	y := Dropout(x, 0.5, true)
	zeros := 0
	for _, v := range y.T.Data {
		if v == 0 {
			zeros++
		} else if math.Abs(float64(v)-2) > 1e-6 {
			t.Fatalf("survivor not scaled: %g", v)
		}
	}
	if zeros < 400 || zeros > 600 {
		t.Errorf("dropped %d of 1000 at p=0.5", zeros)
	}
	if err := Mean(y).Backward(); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxRowsGradient(t *testing.T) {
	d := device(t)
	x := d.Param(tensor.Randn(d.RNG, 1, 3, 4))
	weights := tensor.Randn(d.RNG, 1, 3, 4)
	forward := func() float64 {
		s, _ := tensor.Softmax(x.T)
		var sum float64
		for i := range s.Data {
			sum += float64(s.Data[i] * weights.Data[i])
		}
		return sum
	}
	s, err := SoftmaxRows(x)
	if err != nil {
		t.Fatal(err)
	}
	w, err := MulElem(s, d.Const(weights))
	if err != nil {
		t.Fatal(err)
	}
	total := Mean(w)
	// Scale up by numel to make Mean a plain sum for the check.
	if err := total.Backward(); err != nil {
		t.Fatal(err)
	}
	scaled := tensor.New(x.T.Shape...)
	for i := range scaled.Data {
		scaled.Data[i] = x.Grad.Data[i] * 12
	}
	gradCheck(t, "softmax", x.T, scaled, forward, []int{0, 5, 11})
}
