package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Conv2dOp applies a convolution with explicit weight/bias variables,
// emitting the CuDNN-style fprop kernel forward and dgrad/wgrad kernels
// backward.
func Conv2dOp(x, w, b *V, stride, pad int) (*V, error) {
	var bt *tensor.Tensor
	if b != nil {
		bt = b.T
	}
	y, err := tensor.Conv2D(x.T, w.T, bt, stride, pad)
	if err != nil {
		return nil, err
	}
	d := x.dev
	n, c := x.T.Shape[0], x.T.Shape[1]
	f, kh, kw := w.T.Shape[0], w.T.Shape[2], w.T.Shape[3]
	oh, ow := y.Shape[2], y.Shape[3]
	d.emitConv("fprop", n, c, f, oh, ow, kh, kw, x.T.Bytes(), w.T.Bytes(), y.Bytes())

	parents := []*V{x, w}
	if b != nil {
		parents = append(parents, b)
	}
	return d.newNode(y, func(o *V) {
		dx, dw, db, err := tensor.Conv2DGrads(x.T, w.T, o.Grad, stride, pad, x.needGrad, w.needGrad)
		if err != nil {
			panic(err)
		}
		if x.needGrad {
			d.emitConv("dgrad", n, f, c, x.T.Shape[2], x.T.Shape[3], kh, kw, o.Grad.Bytes(), w.T.Bytes(), x.T.Bytes())
			x.addGrad(dx)
		}
		if w.needGrad {
			d.emitConv("wgrad", n, c, f, kh, kw, oh, ow, x.T.Bytes(), o.Grad.Bytes(), w.T.Bytes())
			w.addGrad(dw)
		}
		if b != nil && b.needGrad {
			d.emitReduce("conv_bias_grad", o.Grad.Numel())
			b.addGrad(db)
		}
	}, parents...), nil
}

// ConvTranspose2dOp applies a transposed convolution (the DCGAN generator's
// upsampling op). CuDNN implements it with dgrad-style kernels.
func ConvTranspose2dOp(x, w, b *V, stride, pad int) (*V, error) {
	var bt *tensor.Tensor
	if b != nil {
		bt = b.T
	}
	y, err := tensor.ConvTranspose2D(x.T, w.T, bt, stride, pad)
	if err != nil {
		return nil, err
	}
	d := x.dev
	n, c := x.T.Shape[0], x.T.Shape[1]
	f, kh, kw := w.T.Shape[1], w.T.Shape[2], w.T.Shape[3]
	oh, ow := y.Shape[2], y.Shape[3]
	d.emitConv("convT_fprop", n, c, f, oh, ow, kh, kw, x.T.Bytes(), w.T.Bytes(), y.Bytes())
	parents := []*V{x, w}
	if b != nil {
		parents = append(parents, b)
	}
	return d.newNode(y, func(o *V) {
		dx, dw, db, err := tensor.ConvTranspose2DGrads(x.T, w.T, o.Grad, stride, pad, x.needGrad, w.needGrad)
		if err != nil {
			panic(err)
		}
		if x.needGrad {
			d.emitConv("convT_dgrad", n, f, c, x.T.Shape[2], x.T.Shape[3], kh, kw, o.Grad.Bytes(), w.T.Bytes(), x.T.Bytes())
			x.addGrad(dx)
		}
		if w.needGrad {
			d.emitConv("convT_wgrad", n, c, f, kh, kw, oh, ow, x.T.Bytes(), o.Grad.Bytes(), w.T.Bytes())
			w.addGrad(dw)
		}
		if b != nil && b.needGrad {
			d.emitReduce("conv_bias_grad", o.Grad.Numel())
			b.addGrad(db)
		}
	}, parents...), nil
}

// BatchNorm2dOp normalizes each channel over (N, H, W) with batch
// statistics and applies a learned scale and shift — the training-mode
// behavior the Cactus ML workloads exercise.
func BatchNorm2dOp(x, gamma, beta *V, eps float32) (*V, error) {
	if len(x.T.Shape) != 4 {
		return nil, fmt.Errorf("nn: batchnorm on %v", x.T.Shape)
	}
	d := x.dev
	n, c, h, w := x.T.Shape[0], x.T.Shape[1], x.T.Shape[2], x.T.Shape[3]
	if gamma.T.Numel() != c || beta.T.Numel() != c {
		return nil, fmt.Errorf("nn: batchnorm params for %d channels", c)
	}
	m := float32(n * h * w)
	mean := make([]float32, c)
	variance := make([]float32, c)
	forEach := func(fn func(ci, idx int)) {
		for ni := 0; ni < n; ni++ {
			for ci := 0; ci < c; ci++ {
				base := (ni*c + ci) * h * w
				for i := 0; i < h*w; i++ {
					fn(ci, base+i)
				}
			}
		}
	}
	forEach(func(ci, idx int) { mean[ci] += x.T.Data[idx] })
	for ci := range mean {
		mean[ci] /= m
	}
	forEach(func(ci, idx int) {
		dv := x.T.Data[idx] - mean[ci]
		variance[ci] += dv * dv
	})
	invStd := make([]float32, c)
	for ci := range variance {
		variance[ci] /= m
		invStd[ci] = 1 / float32(math.Sqrt(float64(variance[ci]+eps)))
	}
	out := tensor.New(x.T.Shape...)
	xhat := tensor.New(x.T.Shape...)
	forEach(func(ci, idx int) {
		xh := (x.T.Data[idx] - mean[ci]) * invStd[ci]
		xhat.Data[idx] = xh
		out.Data[idx] = gamma.T.Data[ci]*xh + beta.T.Data[ci]
	})
	d.emitElementwise(fmt.Sprintf("bn_fw_tr_c%d", c), out.Numel(), 4, 0, 2, 1)

	return d.newNode(out, func(o *V) {
		d.emitElementwise(fmt.Sprintf("bn_bw_c%d", c), out.Numel(), 8, 0, 4, 2)
		dy := o.Grad
		sumDy := make([]float32, c)
		sumDyXhat := make([]float32, c)
		forEach(func(ci, idx int) {
			sumDy[ci] += dy.Data[idx]
			sumDyXhat[ci] += dy.Data[idx] * xhat.Data[idx]
		})
		if gamma.needGrad {
			g := tensor.New(gamma.T.Shape...)
			copy(g.Data, sumDyXhat)
			gamma.addGrad(g)
		}
		if beta.needGrad {
			g := tensor.New(beta.T.Shape...)
			copy(g.Data, sumDy)
			beta.addGrad(g)
		}
		if x.needGrad {
			g := tensor.New(x.T.Shape...)
			forEach(func(ci, idx int) {
				g.Data[idx] = gamma.T.Data[ci] * invStd[ci] / m *
					(m*dy.Data[idx] - sumDy[ci] - xhat.Data[idx]*sumDyXhat[ci])
			})
			x.addGrad(g)
		}
	}, x, gamma, beta), nil
}

// --- Layer modules -----------------------------------------------------------

// Conv2d is a convolution layer with parameters.
type Conv2d struct {
	W, B        *V
	Stride, Pad int
}

// NewConv2d builds a conv layer with Kaiming-style init.
func NewConv2d(d *Device, inC, outC, kernel, stride, pad int) *Conv2d {
	std := math.Sqrt(2 / float64(inC*kernel*kernel))
	return &Conv2d{
		W:      d.Param(tensor.Randn(d.RNG, std, outC, inC, kernel, kernel)),
		B:      d.Param(tensor.New(outC)),
		Stride: stride, Pad: pad,
	}
}

// Forward applies the layer.
func (l *Conv2d) Forward(x *V) (*V, error) { return Conv2dOp(x, l.W, l.B, l.Stride, l.Pad) }

// Params returns the trainable variables.
func (l *Conv2d) Params() []*V { return []*V{l.W, l.B} }

// ConvTranspose2d is a transposed-convolution layer.
type ConvTranspose2d struct {
	W, B        *V
	Stride, Pad int
}

// NewConvTranspose2d builds a deconv layer.
func NewConvTranspose2d(d *Device, inC, outC, kernel, stride, pad int) *ConvTranspose2d {
	std := math.Sqrt(2 / float64(inC*kernel*kernel))
	return &ConvTranspose2d{
		W:      d.Param(tensor.Randn(d.RNG, std, inC, outC, kernel, kernel)),
		B:      d.Param(tensor.New(outC)),
		Stride: stride, Pad: pad,
	}
}

// Forward applies the layer.
func (l *ConvTranspose2d) Forward(x *V) (*V, error) {
	return ConvTranspose2dOp(x, l.W, l.B, l.Stride, l.Pad)
}

// Params returns the trainable variables.
func (l *ConvTranspose2d) Params() []*V { return []*V{l.W, l.B} }

// Linear is a fully connected layer.
type Linear struct {
	W, B *V
}

// NewLinear builds a linear layer (in x out weight).
func NewLinear(d *Device, in, out int) *Linear {
	std := math.Sqrt(2 / float64(in))
	return &Linear{
		W: d.Param(tensor.Randn(d.RNG, std, in, out)),
		B: d.Param(tensor.New(out)),
	}
}

// Forward computes x W + b for x (batch, in).
func (l *Linear) Forward(x *V) (*V, error) {
	y, err := MatMul(x, l.W, false, false)
	if err != nil {
		return nil, err
	}
	return AddBias(y, l.B)
}

// Params returns the trainable variables.
func (l *Linear) Params() []*V { return []*V{l.W, l.B} }

// BatchNorm2d is a batch-normalization layer.
type BatchNorm2d struct {
	Gamma, Beta *V
	Eps         float32
}

// NewBatchNorm2d builds a BN layer for c channels.
func NewBatchNorm2d(d *Device, c int) *BatchNorm2d {
	return &BatchNorm2d{
		Gamma: d.Param(tensor.Full(1, c)),
		Beta:  d.Param(tensor.New(c)),
		Eps:   1e-5,
	}
}

// Forward applies training-mode batch normalization.
func (l *BatchNorm2d) Forward(x *V) (*V, error) {
	return BatchNorm2dOp(x, l.Gamma, l.Beta, l.Eps)
}

// Params returns the trainable variables.
func (l *BatchNorm2d) Params() []*V { return []*V{l.Gamma, l.Beta} }

// GRUCell is a gated recurrent unit cell: Wx (in x 3H), Wh (H x 3H), biases.
type GRUCell struct {
	Wx, Wh, Bx, Bh *V
	Hidden         int
}

// NewGRUCell builds a GRU cell.
func NewGRUCell(d *Device, in, hidden int) *GRUCell {
	std := math.Sqrt(1 / float64(hidden))
	return &GRUCell{
		Wx:     d.Param(tensor.Randn(d.RNG, std, in, 3*hidden)),
		Wh:     d.Param(tensor.Randn(d.RNG, std, hidden, 3*hidden)),
		Bx:     d.Param(tensor.New(3 * hidden)),
		Bh:     d.Param(tensor.New(3 * hidden)),
		Hidden: hidden,
	}
}

// Params returns the trainable variables.
func (c *GRUCell) Params() []*V { return []*V{c.Wx, c.Wh, c.Bx, c.Bh} }

// Step advances the cell one timestep: x (B, in), h (B, H) -> h' (B, H).
// The gate GEMMs launch as sgemm kernels; the gate nonlinearities launch as
// one fused pointwise kernel (as in CuDNN's RNN implementation).
func (c *GRUCell) Step(x, h *V) (*V, error) {
	gx, err := MatMul(x, c.Wx, false, false)
	if err != nil {
		return nil, err
	}
	gx, err = AddBias(gx, c.Bx)
	if err != nil {
		return nil, err
	}
	gh, err := MatMul(h, c.Wh, false, false)
	if err != nil {
		return nil, err
	}
	gh, err = AddBias(gh, c.Bh)
	if err != nil {
		return nil, err
	}
	return gruPointwise(gx, gh, h, c.Hidden)
}

// gruPointwise fuses the GRU gate nonlinearities:
//
//	r = sigmoid(gx_r + gh_r); z = sigmoid(gx_z + gh_z)
//	n = tanh(gx_n + r*gh_n);  h' = (1-z)*n + z*h
func gruPointwise(gx, gh, h *V, hidden int) (*V, error) {
	b := h.T.Shape[0]
	if gx.T.Shape[0] != b || gx.T.Shape[1] != 3*hidden || gh.T.Shape[1] != 3*hidden {
		return nil, fmt.Errorf("nn: gru gates %v %v h %v", gx.T.Shape, gh.T.Shape, h.T.Shape)
	}
	d := h.dev
	sig := func(v float32) float32 { return float32(1 / (1 + math.Exp(-float64(v)))) }
	r := tensor.New(b, hidden)
	z := tensor.New(b, hidden)
	nq := tensor.New(b, hidden)
	out := tensor.New(b, hidden)
	for i := 0; i < b; i++ {
		for j := 0; j < hidden; j++ {
			gxr := gx.T.Data[i*3*hidden+j]
			gxz := gx.T.Data[i*3*hidden+hidden+j]
			gxn := gx.T.Data[i*3*hidden+2*hidden+j]
			ghr := gh.T.Data[i*3*hidden+j]
			ghz := gh.T.Data[i*3*hidden+hidden+j]
			ghn := gh.T.Data[i*3*hidden+2*hidden+j]
			rv := sig(gxr + ghr)
			zv := sig(gxz + ghz)
			nv := float32(math.Tanh(float64(gxn + rv*ghn)))
			r.Data[i*hidden+j] = rv
			z.Data[i*hidden+j] = zv
			nq.Data[i*hidden+j] = nv
			out.Data[i*hidden+j] = (1-zv)*nv + zv*h.T.Data[i*hidden+j]
		}
	}
	d.emitElementwise("gru_cell_pointwise_fwd", b*hidden, 3, 3, 3, 1)
	return d.newNode(out, func(o *V) {
		d.emitElementwise("gru_cell_pointwise_bwd", b*hidden, 3, 4, 4, 3)
		dgx := tensor.New(b, 3*hidden)
		dgh := tensor.New(b, 3*hidden)
		dh := tensor.New(b, hidden)
		for i := 0; i < b; i++ {
			for j := 0; j < hidden; j++ {
				doh := o.Grad.Data[i*hidden+j]
				rv := r.Data[i*hidden+j]
				zv := z.Data[i*hidden+j]
				nv := nq.Data[i*hidden+j]
				hv := h.T.Data[i*hidden+j]
				ghn := gh.T.Data[i*3*hidden+2*hidden+j]

				dn := doh * (1 - zv)
				dz := doh * (hv - nv)
				dh.Data[i*hidden+j] = doh * zv

				dtanh := dn * (1 - nv*nv)
				dgx.Data[i*3*hidden+2*hidden+j] = dtanh
				dgh.Data[i*3*hidden+2*hidden+j] = dtanh * rv
				dr := dtanh * ghn

				dsr := dr * rv * (1 - rv)
				dgx.Data[i*3*hidden+j] = dsr
				dgh.Data[i*3*hidden+j] = dsr

				dsz := dz * zv * (1 - zv)
				dgx.Data[i*3*hidden+hidden+j] = dsz
				dgh.Data[i*3*hidden+hidden+j] = dsz
			}
		}
		if gx.needGrad {
			gx.addGrad(dgx)
		}
		if gh.needGrad {
			gh.addGrad(dgh)
		}
		if h.needGrad {
			h.addGrad(dh)
		}
	}, gx, gh, h), nil
}
