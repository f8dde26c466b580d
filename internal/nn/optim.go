package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// SGD is stochastic gradient descent with optional momentum.
type SGD struct {
	params   []*V
	lr       float32
	momentum float32
	velocity []*tensor.Tensor
	dev      *Device
}

// NewSGD builds an SGD optimizer over params.
func NewSGD(d *Device, params []*V, lr, momentum float32) *SGD {
	s := &SGD{params: params, lr: lr, momentum: momentum, dev: d}
	if momentum != 0 {
		s.velocity = make([]*tensor.Tensor, len(params))
		for i, p := range params {
			s.velocity[i] = tensor.New(p.T.Shape...)
		}
	}
	return s
}

// Step applies one SGD update across all parameters. The per-tensor updates
// launch as one fused multi-tensor kernel, like PyTorch's foreach path.
func (s *SGD) Step() {
	total := 0
	for i, p := range s.params {
		if p.Grad == nil {
			continue
		}
		total += p.T.Numel()
		for j := range p.T.Data {
			g := p.Grad.Data[j]
			if s.momentum != 0 {
				v := s.velocity[i]
				v.Data[j] = s.momentum*v.Data[j] + g
				g = v.Data[j]
			}
			p.T.Data[j] -= s.lr * g
		}
		p.Grad.Zero()
	}
	if total > 0 {
		s.dev.emitParamOp("fill_zero_grad", total, 0.5, 0, 0, 1)
		s.dev.emitParamOp("multi_tensor_sgd_step", total, 3, 0, 2, 1)
	}
}

// Adam is the Adam optimizer.
type Adam struct {
	params   []*V
	lr       float32
	beta1    float32
	beta2    float32
	eps      float32
	m, v     []*tensor.Tensor
	step     int
	dev      *Device
	perParam bool
}

// NewAdam builds an Adam optimizer with the usual defaults
// (beta1=0.9 or the DCGAN 0.5, beta2=0.999).
func NewAdam(d *Device, params []*V, lr, beta1 float32) *Adam {
	a := &Adam{
		params: params, lr: lr, beta1: beta1, beta2: 0.999, eps: 1e-8, dev: d,
		m: make([]*tensor.Tensor, len(params)),
		v: make([]*tensor.Tensor, len(params)),
	}
	for i, p := range params {
		a.m[i] = tensor.New(p.T.Shape...)
		a.v[i] = tensor.New(p.T.Shape...)
	}
	return a
}

// SetPerParam switches the update to one kernel launch per parameter tensor
// (size-bucketed names), matching pre-multi-tensor PyTorch releases.
func (a *Adam) SetPerParam(on bool) { a.perParam = on }

// Step applies one Adam update across all parameters.
func (a *Adam) Step() {
	a.step++
	bc1 := 1 - float32(math.Pow(float64(a.beta1), float64(a.step)))
	bc2 := 1 - float32(math.Pow(float64(a.beta2), float64(a.step)))
	total := 0
	for i, p := range a.params {
		if p.Grad == nil {
			continue
		}
		total += p.T.Numel()
		if a.perParam {
			a.dev.emitParamOp(fmt.Sprintf("adam_elementwise_n%d", bucket(p.T.Numel())), p.T.Numel(), 3, 1, 4, 3)
		}
		m, v := a.m[i], a.v[i]
		for j := range p.T.Data {
			g := p.Grad.Data[j]
			m.Data[j] = a.beta1*m.Data[j] + (1-a.beta1)*g
			v.Data[j] = a.beta2*v.Data[j] + (1-a.beta2)*g*g
			mh := m.Data[j] / bc1
			vh := v.Data[j] / bc2
			p.T.Data[j] -= a.lr * mh / (float32(math.Sqrt(float64(vh))) + a.eps)
		}
		p.Grad.Zero()
	}
	if total > 0 {
		a.dev.emitParamOp("fill_zero_grad", total, 0.5, 0, 0, 1)
		if !a.perParam {
			a.dev.emitParamOp("multi_tensor_adam_step", total, 3, 1, 4, 3)
		}
	}
}

// ClipGradNorm rescales all gradients so their global L2 norm is at most
// maxNorm, launching the norm-reduce and scale kernels RNN training uses.
func ClipGradNorm(d *Device, params []*V, maxNorm float32) float32 {
	var sum float64
	total := 0
	for _, p := range params {
		if p.Grad == nil {
			continue
		}
		total += p.T.Numel()
		for _, g := range p.Grad.Data {
			sum += float64(g) * float64(g)
		}
	}
	if total == 0 {
		return 0
	}
	d.emitParamOp("grad_norm_reduce", total, 1, 0, 1, 0)
	norm := float32(math.Sqrt(sum))
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			if p.Grad == nil {
				continue
			}
			for i := range p.Grad.Data {
				p.Grad.Data[i] *= scale
			}
		}
		d.emitParamOp("grad_clip_scale", total, 1, 0, 1, 1)
	}
	return norm
}

// CollectParams flattens parameter lists of several modules.
func CollectParams(groups ...[]*V) []*V {
	var out []*V
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}
