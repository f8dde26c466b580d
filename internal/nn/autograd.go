package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// V is a node in the autograd tape: a tensor, its gradient accumulator, and
// the closure that propagates gradients (and launches the backward kernels).
type V struct {
	T    *tensor.Tensor
	Grad *tensor.Tensor

	dev      *Device
	needGrad bool
	back     func()
	parents  []*V
}

// Const wraps a tensor that requires no gradient.
func (d *Device) Const(t *tensor.Tensor) *V {
	return &V{T: t, dev: d}
}

// Param wraps a trainable tensor.
func (d *Device) Param(t *tensor.Tensor) *V {
	return &V{T: t, dev: d, needGrad: true}
}

// ensureGrad lazily allocates the gradient accumulator.
func (v *V) ensureGrad() *tensor.Tensor {
	if v.Grad == nil {
		v.Grad = tensor.New(v.T.Shape...)
	}
	return v.Grad
}

// addGrad accumulates g into v's gradient (if it participates).
func (v *V) addGrad(g *tensor.Tensor) {
	if !v.needGrad {
		return
	}
	if err := v.ensureGrad().AddScaled(g, 1); err != nil {
		panic(fmt.Sprintf("nn: gradient shape mismatch: %v", err))
	}
}

// newNode builds a result node; it requires grad if any parent does.
func (d *Device) newNode(t *tensor.Tensor, back func(out *V), parents ...*V) *V {
	out := &V{T: t, dev: d, parents: parents}
	for _, p := range parents {
		if p.needGrad {
			out.needGrad = true
			break
		}
	}
	if out.needGrad && back != nil {
		out.back = func() { back(out) }
	}
	return out
}

// Backward runs reverse-mode differentiation from v, which must be a scalar
// (one element); its gradient is seeded with 1.
func (v *V) Backward() error {
	if v.T.Numel() != 1 {
		return fmt.Errorf("nn: Backward on non-scalar of shape %v", v.T.Shape)
	}
	v.ensureGrad().Data[0] = 1
	// Topological order via iterative post-order DFS.
	var order []*V
	seen := map[*V]bool{}
	type frame struct {
		n   *V
		idx int
	}
	stack := []frame{{v, 0}}
	seen[v] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.idx < len(f.n.parents) {
			p := f.n.parents[f.idx]
			f.idx++
			if !seen[p] {
				seen[p] = true
				stack = append(stack, frame{p, 0})
			}
			continue
		}
		order = append(order, f.n)
		stack = stack[:len(stack)-1]
	}
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.back != nil && n.Grad != nil {
			n.back()
		}
	}
	return nil
}

// Detach returns a constant view of v's value (gradient flow stops).
func (v *V) Detach() *V { return v.dev.Const(v.T) }

// --- Core ops ---------------------------------------------------------------

// MatMul multiplies (optionally transposed) matrices, emitting SGEMM kernels
// forward and backward.
func MatMul(a, b *V, transA, transB bool) (*V, error) {
	c, err := tensor.MatMul(a.T, b.T, transA, transB)
	if err != nil {
		return nil, err
	}
	d := a.dev
	m, n := c.Shape[0], c.Shape[1]
	k := a.T.Shape[1]
	if transA {
		k = a.T.Shape[0]
	}
	d.emitGEMM(m, n, k, transA, transB)
	out := d.newNode(c, func(out *V) {
		dc := out.Grad
		if a.needGrad {
			var da *tensor.Tensor
			var err error
			if !transA {
				da, err = tensor.MatMul(dc, b.T, false, !transB)
			} else {
				da, err = tensor.MatMul(b.T, dc, transB, true)
			}
			if err != nil {
				panic(err)
			}
			d.emitGEMM(da.Shape[0], da.Shape[1], n, false, !transB)
			a.addGrad(da)
		}
		if b.needGrad {
			var db *tensor.Tensor
			var err error
			if !transB {
				db, err = tensor.MatMul(a.T, dc, !transA, false)
			} else {
				db, err = tensor.MatMul(dc, a.T, true, transA)
			}
			if err != nil {
				panic(err)
			}
			d.emitGEMM(db.Shape[0], db.Shape[1], m, true, transA)
			b.addGrad(db)
		}
	}, a, b)
	return out, nil
}

// Add returns alpha*a + beta*b elementwise (same shapes).
func Add(a, b *V, alpha, beta float32) (*V, error) {
	if !tensor.SameShape(a.T, b.T) {
		return nil, fmt.Errorf("nn: add shapes %v vs %v", a.T.Shape, b.T.Shape)
	}
	d := a.dev
	out := tensor.New(a.T.Shape...)
	for i := range out.Data {
		out.Data[i] = alpha*a.T.Data[i] + beta*b.T.Data[i]
	}
	d.emitElementwise("elementwise_add", out.Numel(), 2, 0, 2, 1)
	return d.newNode(out, func(o *V) {
		d.emitElementwise("elementwise_add_bwd", out.Numel(), 2, 0, 1, 2)
		if a.needGrad {
			g := o.Grad.Clone()
			for i := range g.Data {
				g.Data[i] *= alpha
			}
			a.addGrad(g)
		}
		if b.needGrad {
			g := o.Grad.Clone()
			for i := range g.Data {
				g.Data[i] *= beta
			}
			b.addGrad(g)
		}
	}, a, b), nil
}

// AddBias adds a bias vector to the last dimension (rows of a 2-D tensor or
// channels of a 4-D NCHW tensor).
func AddBias(x, b *V) (*V, error) {
	d := x.dev
	out := x.T.Clone()
	switch len(x.T.Shape) {
	case 2:
		n := x.T.Shape[1]
		if b.T.Numel() != n {
			return nil, fmt.Errorf("nn: bias %v on %v", b.T.Shape, x.T.Shape)
		}
		for i := 0; i < x.T.Shape[0]; i++ {
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += b.T.Data[j]
			}
		}
	case 4:
		c := x.T.Shape[1]
		if b.T.Numel() != c {
			return nil, fmt.Errorf("nn: channel bias %v on %v", b.T.Shape, x.T.Shape)
		}
		hw := x.T.Shape[2] * x.T.Shape[3]
		for ni := 0; ni < x.T.Shape[0]; ni++ {
			for ci := 0; ci < c; ci++ {
				base := (ni*c + ci) * hw
				for i := 0; i < hw; i++ {
					out.Data[base+i] += b.T.Data[ci]
				}
			}
		}
	default:
		return nil, fmt.Errorf("nn: bias on %v", x.T.Shape)
	}
	d.emitElementwise("bias_add", out.Numel(), 1, 0, 2, 1)
	return d.newNode(out, func(o *V) {
		if x.needGrad {
			x.addGrad(o.Grad)
		}
		if b.needGrad {
			d.emitReduce("bias_grad_reduce", o.Grad.Numel())
			g := tensor.New(b.T.Shape...)
			switch len(x.T.Shape) {
			case 2:
				n := x.T.Shape[1]
				for i := 0; i < x.T.Shape[0]; i++ {
					for j := 0; j < n; j++ {
						g.Data[j] += o.Grad.Data[i*n+j]
					}
				}
			case 4:
				c := x.T.Shape[1]
				hw := x.T.Shape[2] * x.T.Shape[3]
				for ni := 0; ni < x.T.Shape[0]; ni++ {
					for ci := 0; ci < c; ci++ {
						base := (ni*c + ci) * hw
						for i := 0; i < hw; i++ {
							g.Data[ci] += o.Grad.Data[base+i]
						}
					}
				}
			}
			b.addGrad(g)
		}
	}, x, b), nil
}

// Reshape returns a view with a new shape.
func Reshape(x *V, shape ...int) (*V, error) {
	t, err := x.T.Reshape(shape...)
	if err != nil {
		return nil, err
	}
	d := x.dev
	return d.newNode(t, func(o *V) {
		if x.needGrad {
			g, err := o.Grad.Reshape(x.T.Shape...)
			if err != nil {
				panic(err)
			}
			x.addGrad(g)
		}
	}, x), nil
}

// Concat2D concatenates two 2-D tensors along columns.
func Concat2D(a, b *V) (*V, error) {
	if len(a.T.Shape) != 2 || len(b.T.Shape) != 2 || a.T.Shape[0] != b.T.Shape[0] {
		return nil, fmt.Errorf("nn: concat %v | %v", a.T.Shape, b.T.Shape)
	}
	d := a.dev
	m, na, nb := a.T.Shape[0], a.T.Shape[1], b.T.Shape[1]
	out := tensor.New(m, na+nb)
	for i := 0; i < m; i++ {
		copy(out.Data[i*(na+nb):i*(na+nb)+na], a.T.Data[i*na:(i+1)*na])
		copy(out.Data[i*(na+nb)+na:(i+1)*(na+nb)], b.T.Data[i*nb:(i+1)*nb])
	}
	d.emitElementwise("cat_copy", out.Numel(), 0.5, 0, 1, 1)
	return d.newNode(out, func(o *V) {
		if a.needGrad {
			g := tensor.New(m, na)
			for i := 0; i < m; i++ {
				copy(g.Data[i*na:(i+1)*na], o.Grad.Data[i*(na+nb):i*(na+nb)+na])
			}
			a.addGrad(g)
		}
		if b.needGrad {
			g := tensor.New(m, nb)
			for i := 0; i < m; i++ {
				copy(g.Data[i*nb:(i+1)*nb], o.Grad.Data[i*(na+nb)+na:(i+1)*(na+nb)])
			}
			b.addGrad(g)
		}
	}, a, b), nil
}

// SliceCols returns columns [lo, hi) of a 2-D tensor.
func SliceCols(x *V, lo, hi int) (*V, error) {
	if len(x.T.Shape) != 2 || lo < 0 || hi > x.T.Shape[1] || lo >= hi {
		return nil, fmt.Errorf("nn: slice cols [%d,%d) of %v", lo, hi, x.T.Shape)
	}
	d := x.dev
	m, n := x.T.Shape[0], x.T.Shape[1]
	w := hi - lo
	out := tensor.New(m, w)
	for i := 0; i < m; i++ {
		copy(out.Data[i*w:(i+1)*w], x.T.Data[i*n+lo:i*n+hi])
	}
	d.emitElementwise("slice_copy", out.Numel(), 0.5, 0, 1, 1)
	return d.newNode(out, func(o *V) {
		if x.needGrad {
			g := tensor.New(m, n)
			for i := 0; i < m; i++ {
				copy(g.Data[i*n+lo:i*n+hi], o.Grad.Data[i*w:(i+1)*w])
			}
			x.addGrad(g)
		}
	}, x), nil
}

// AttentionContext computes ctx[b,h] = sum_t weights[b,t] * enc[t][b,h] —
// the batched weighted sum over encoder states used by attention decoders
// (PyTorch's bmm over attention weights and encoder outputs).
func AttentionContext(weights *V, enc []*V) (*V, error) {
	if len(weights.T.Shape) != 2 || weights.T.Shape[1] != len(enc) {
		return nil, fmt.Errorf("nn: attention weights %v over %d states", weights.T.Shape, len(enc))
	}
	if len(enc) == 0 {
		return nil, fmt.Errorf("nn: attention over no states")
	}
	d := weights.dev
	b, h := weights.T.Shape[0], enc[0].T.Shape[1]
	for ti, e := range enc {
		if e.T.Shape[0] != b || e.T.Shape[1] != h {
			return nil, fmt.Errorf("nn: attention state %d shape %v", ti, e.T.Shape)
		}
	}
	tl := len(enc)
	out := tensor.New(b, h)
	for bi := 0; bi < b; bi++ {
		for ti := 0; ti < tl; ti++ {
			w := weights.T.Data[bi*tl+ti]
			if w == 0 {
				continue
			}
			for hi := 0; hi < h; hi++ {
				out.Data[bi*h+hi] += w * enc[ti].T.Data[bi*h+hi]
			}
		}
	}
	d.emitElementwise("bmm_attention_context", b*tl*h, 2, 0, 2, 1)
	parents := append([]*V{weights}, enc...)
	return d.newNode(out, func(o *V) {
		d.emitElementwise("bmm_attention_context_bwd", b*tl*h, 3, 0, 3, 2)
		if weights.needGrad {
			g := tensor.New(b, tl)
			for bi := 0; bi < b; bi++ {
				for ti := 0; ti < tl; ti++ {
					var s float32
					for hi := 0; hi < h; hi++ {
						s += o.Grad.Data[bi*h+hi] * enc[ti].T.Data[bi*h+hi]
					}
					g.Data[bi*tl+ti] = s
				}
			}
			weights.addGrad(g)
		}
		for ti, e := range enc {
			if !e.needGrad {
				continue
			}
			g := tensor.New(b, h)
			for bi := 0; bi < b; bi++ {
				w := weights.T.Data[bi*tl+ti]
				for hi := 0; hi < h; hi++ {
					g.Data[bi*h+hi] = w * o.Grad.Data[bi*h+hi]
				}
			}
			e.addGrad(g)
		}
	}, parents...), nil
}

// --- Activations ------------------------------------------------------------

func activation(x *V, fwdName, bwdName string, sfu float64, f func(float32) float32, df func(y, x float32) float32) *V {
	d := x.dev
	out := tensor.New(x.T.Shape...)
	for i, v := range x.T.Data {
		out.Data[i] = f(v)
	}
	opCost := 2.0
	if sfu > 0 {
		opCost = 3
	}
	d.emitElementwise(fwdName, out.Numel(), opCost, sfu, 1, 1)
	return d.newNode(out, func(o *V) {
		d.emitElementwise(bwdName, out.Numel(), 3, 0, 2, 1)
		if x.needGrad {
			g := tensor.New(x.T.Shape...)
			for i := range g.Data {
				g.Data[i] = o.Grad.Data[i] * df(out.Data[i], x.T.Data[i])
			}
			x.addGrad(g)
		}
	}, x)
}

// ReLU applies max(0, x).
func ReLU(x *V) *V {
	return activation(x, "relu_fwd", "relu_bwd", 0,
		func(v float32) float32 {
			if v > 0 {
				return v
			}
			return 0
		},
		func(y, v float32) float32 {
			if v > 0 {
				return 1
			}
			return 0
		})
}

// LeakyReLU applies x for x>0 and alpha*x otherwise (the DCGAN
// discriminator's activation).
func LeakyReLU(x *V, alpha float32) *V {
	return activation(x, "leaky_relu_fwd", "leaky_relu_bwd", 0,
		func(v float32) float32 {
			if v > 0 {
				return v
			}
			return alpha * v
		},
		func(y, v float32) float32 {
			if v > 0 {
				return 1
			}
			return alpha
		})
}

// Tanh applies the hyperbolic tangent.
func Tanh(x *V) *V {
	return activation(x, "tanh_fwd", "tanh_bwd", 2,
		func(v float32) float32 { return float32(math.Tanh(float64(v))) },
		func(y, v float32) float32 { return 1 - y*y })
}

// --- Structured ops ----------------------------------------------------------

// MaxPool applies window x window max pooling with the given stride.
func MaxPool(x *V, window, stride int) (*V, error) {
	out, arg, err := tensor.MaxPool2D(x.T, window, stride)
	if err != nil {
		return nil, err
	}
	d := x.dev
	d.emitElementwise(fmt.Sprintf("maxpool%d_fwd", window), x.T.Numel(), 1, 0, 1, 1)
	return d.newNode(out, func(o *V) {
		d.emitElementwise(fmt.Sprintf("maxpool%d_bwd", window), x.T.Numel(), 1, 0, 1, 1)
		if x.needGrad {
			g := tensor.New(x.T.Shape...)
			for i, src := range arg {
				g.Data[src] += o.Grad.Data[i]
			}
			x.addGrad(g)
		}
	}, x), nil
}

// SoftmaxRows applies a row-wise softmax to a 2-D tensor.
func SoftmaxRows(x *V) (*V, error) {
	s, err := tensor.Softmax(x.T)
	if err != nil {
		return nil, err
	}
	d := x.dev
	d.emitElementwise("softmax_fwd", x.T.Numel(), 3, 1, 1, 1)
	return d.newNode(s, func(o *V) {
		d.emitElementwise("softmax_bwd", x.T.Numel(), 3, 0, 2, 1)
		if x.needGrad {
			m, n := x.T.Shape[0], x.T.Shape[1]
			g := tensor.New(m, n)
			for i := 0; i < m; i++ {
				var dot float32
				for j := 0; j < n; j++ {
					dot += o.Grad.Data[i*n+j] * s.Data[i*n+j]
				}
				for j := 0; j < n; j++ {
					g.Data[i*n+j] = s.Data[i*n+j] * (o.Grad.Data[i*n+j] - dot)
				}
			}
			x.addGrad(g)
		}
	}, x), nil
}

// Dropout zeroes elements with probability p at train time and scales the
// survivors by 1/(1-p).
func Dropout(x *V, p float64, train bool) *V {
	d := x.dev
	if !train || p <= 0 {
		return x
	}
	mask := make([]bool, x.T.Numel())
	scale := float32(1 / (1 - p))
	out := tensor.New(x.T.Shape...)
	for i, v := range x.T.Data {
		if d.RNG.Float64() >= p {
			mask[i] = true
			out.Data[i] = v * scale
		}
	}
	d.emitElementwise("dropout_fwd", out.Numel(), 2, 0, 1, 1)
	return d.newNode(out, func(o *V) {
		d.emitElementwise("dropout_bwd", out.Numel(), 2, 0, 2, 1)
		if x.needGrad {
			g := tensor.New(x.T.Shape...)
			for i := range g.Data {
				if mask[i] {
					g.Data[i] = o.Grad.Data[i] * scale
				}
			}
			x.addGrad(g)
		}
	}, x)
}

// Embedding gathers rows of table for the given ids.
func Embedding(table *V, ids []int) (*V, error) {
	if len(table.T.Shape) != 2 {
		return nil, fmt.Errorf("nn: embedding table %v", table.T.Shape)
	}
	vocab, dim := table.T.Shape[0], table.T.Shape[1]
	out := tensor.New(len(ids), dim)
	for i, id := range ids {
		if id < 0 || id >= vocab {
			return nil, fmt.Errorf("nn: embedding id %d out of vocab %d", id, vocab)
		}
		copy(out.Data[i*dim:(i+1)*dim], table.T.Data[id*dim:(id+1)*dim])
	}
	d := table.dev
	d.emitElementwise("embedding_fwd_gather", out.Numel(), 0.5, 0, 1, 1)
	return d.newNode(out, func(o *V) {
		d.emitElementwise("embedding_bwd_scatter", out.Numel(), 1, 0, 1, 1)
		if table.needGrad {
			g := tensor.New(vocab, dim)
			for i, id := range ids {
				for j := 0; j < dim; j++ {
					g.Data[id*dim+j] += o.Grad.Data[i*dim+j]
				}
			}
			table.addGrad(g)
		}
	}, table), nil
}
