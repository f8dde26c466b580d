package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// MSELoss returns mean((pred - target)^2) as a scalar variable. target is a
// plain tensor (no gradient).
func MSELoss(pred *V, target *tensor.Tensor) (*V, error) {
	if pred.T.Numel() != target.Numel() {
		return nil, fmt.Errorf("nn: mse %v vs %v", pred.T.Shape, target.Shape)
	}
	d := pred.dev
	n := float32(pred.T.Numel())
	var sum float32
	for i := range pred.T.Data {
		df := pred.T.Data[i] - target.Data[i]
		sum += df * df
	}
	out := tensor.New(1)
	out.Data[0] = sum / n
	d.emitReduce("mse_loss_fwd", pred.T.Numel())
	return d.newNode(out, func(o *V) {
		d.emitElementwise("mse_loss_bwd", pred.T.Numel(), 2, 0, 2, 1)
		if pred.needGrad {
			g := tensor.New(pred.T.Shape...)
			scale := o.Grad.Data[0] * 2 / n
			for i := range g.Data {
				g.Data[i] = scale * (pred.T.Data[i] - target.Data[i])
			}
			pred.addGrad(g)
		}
	}, pred), nil
}

// BCEWithLogits returns the mean binary cross-entropy between logits and
// targets in [0,1], computed with the numerically stable formulation
// max(z,0) - z*t + log(1+exp(-|z|)).
func BCEWithLogits(logits *V, target *tensor.Tensor) (*V, error) {
	if logits.T.Numel() != target.Numel() {
		return nil, fmt.Errorf("nn: bce %v vs %v", logits.T.Shape, target.Shape)
	}
	d := logits.dev
	n := float32(logits.T.Numel())
	var sum float64
	for i := range logits.T.Data {
		z := float64(logits.T.Data[i])
		t := float64(target.Data[i])
		sum += math.Max(z, 0) - z*t + math.Log1p(math.Exp(-math.Abs(z)))
	}
	out := tensor.New(1)
	out.Data[0] = float32(sum) / n
	d.emitElementwise("bce_logits_fwd", logits.T.Numel(), 3, 2, 2, 1)
	return d.newNode(out, func(o *V) {
		d.emitElementwise("bce_logits_bwd", logits.T.Numel(), 3, 2, 2, 1)
		if logits.needGrad {
			g := tensor.New(logits.T.Shape...)
			scale := o.Grad.Data[0] / n
			for i := range g.Data {
				z := float64(logits.T.Data[i])
				sig := float32(1 / (1 + math.Exp(-z)))
				g.Data[i] = scale * (sig - target.Data[i])
			}
			logits.addGrad(g)
		}
	}, logits), nil
}

// CrossEntropy returns the mean softmax cross-entropy between logits
// (batch, classes) and integer labels.
func CrossEntropy(logits *V, labels []int) (*V, error) {
	if len(logits.T.Shape) != 2 || logits.T.Shape[0] != len(labels) {
		return nil, fmt.Errorf("nn: cross-entropy logits %v, %d labels", logits.T.Shape, len(labels))
	}
	d := logits.dev
	probs, err := tensor.Softmax(logits.T)
	if err != nil {
		return nil, err
	}
	b, c := logits.T.Shape[0], logits.T.Shape[1]
	var sum float64
	for i, lab := range labels {
		if lab < 0 || lab >= c {
			return nil, fmt.Errorf("nn: label %d out of %d classes", lab, c)
		}
		p := float64(probs.Data[i*c+lab])
		if p < 1e-12 {
			p = 1e-12
		}
		sum -= math.Log(p)
	}
	out := tensor.New(1)
	out.Data[0] = float32(sum / float64(b))
	d.emitElementwise("softmax_xent_fwd", logits.T.Numel(), 3, 1, 1, 1)
	return d.newNode(out, func(o *V) {
		d.emitElementwise("softmax_xent_bwd", logits.T.Numel(), 2, 0, 2, 1)
		if logits.needGrad {
			g := tensor.New(b, c)
			scale := o.Grad.Data[0] / float32(b)
			for i := 0; i < b; i++ {
				for j := 0; j < c; j++ {
					g.Data[i*c+j] = scale * probs.Data[i*c+j]
				}
				g.Data[i*c+labels[i]] -= scale
			}
			logits.addGrad(g)
		}
	}, logits), nil
}

// LogSoftmaxRows applies a row-wise log-softmax (the PyTorch tutorial's
// decoder output activation).
func LogSoftmaxRows(x *V) (*V, error) {
	if len(x.T.Shape) != 2 {
		return nil, fmt.Errorf("nn: log-softmax on %v", x.T.Shape)
	}
	d := x.dev
	probs, err := tensor.Softmax(x.T)
	if err != nil {
		return nil, err
	}
	out := tensor.New(x.T.Shape...)
	for i, p := range probs.Data {
		if p < 1e-20 {
			p = 1e-20
		}
		out.Data[i] = float32(math.Log(float64(p)))
	}
	d.emitElementwise("log_softmax_fwd", x.T.Numel(), 3, 1, 1, 1)
	m, n := x.T.Shape[0], x.T.Shape[1]
	return d.newNode(out, func(o *V) {
		d.emitElementwise("log_softmax_bwd", x.T.Numel(), 2, 0, 2, 1)
		if x.needGrad {
			g := tensor.New(m, n)
			for i := 0; i < m; i++ {
				var rowSum float32
				for j := 0; j < n; j++ {
					rowSum += o.Grad.Data[i*n+j]
				}
				for j := 0; j < n; j++ {
					g.Data[i*n+j] = o.Grad.Data[i*n+j] - probs.Data[i*n+j]*rowSum
				}
			}
			x.addGrad(g)
		}
	}, x), nil
}

// NLLLoss returns the mean negative log-likelihood of log-probabilities at
// the given labels.
func NLLLoss(logProbs *V, labels []int) (*V, error) {
	if len(logProbs.T.Shape) != 2 || logProbs.T.Shape[0] != len(labels) {
		return nil, fmt.Errorf("nn: nll %v, %d labels", logProbs.T.Shape, len(labels))
	}
	d := logProbs.dev
	b, c := logProbs.T.Shape[0], logProbs.T.Shape[1]
	var sum float64
	for i, lab := range labels {
		if lab < 0 || lab >= c {
			return nil, fmt.Errorf("nn: label %d out of %d classes", lab, c)
		}
		sum -= float64(logProbs.T.Data[i*c+lab])
	}
	out := tensor.New(1)
	out.Data[0] = float32(sum / float64(b))
	d.emitReduce("nll_loss_fwd", b)
	return d.newNode(out, func(o *V) {
		d.emitElementwise("nll_loss_bwd", b, 1, 0, 1, 1)
		if logProbs.needGrad {
			g := tensor.New(b, c)
			scale := o.Grad.Data[0] / float32(b)
			for i, lab := range labels {
				g.Data[i*c+lab] = -scale
			}
			logProbs.addGrad(g)
		}
	}, logProbs), nil
}

// TVLoss returns the total-variation regularizer of a 4-D image: the mean
// squared difference between horizontally and vertically adjacent pixels —
// the smoothness term of neural style transfer.
func TVLoss(x *V) (*V, error) {
	if len(x.T.Shape) != 4 {
		return nil, fmt.Errorf("nn: tv loss on %v", x.T.Shape)
	}
	d := x.dev
	n, c, h, w := x.T.Shape[0], x.T.Shape[1], x.T.Shape[2], x.T.Shape[3]
	at := func(ni, ci, y, xx int) int { return ((ni*c+ci)*h+y)*w + xx }
	var sum float64
	count := 0
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			for y := 0; y < h; y++ {
				for xx := 0; xx < w; xx++ {
					v := x.T.Data[at(ni, ci, y, xx)]
					if xx+1 < w {
						dv := float64(x.T.Data[at(ni, ci, y, xx+1)] - v)
						sum += dv * dv
						count++
					}
					if y+1 < h {
						dv := float64(x.T.Data[at(ni, ci, y+1, xx)] - v)
						sum += dv * dv
						count++
					}
				}
			}
		}
	}
	out := tensor.New(1)
	if count > 0 {
		out.Data[0] = float32(sum / float64(count))
	}
	d.emitElementwise("tv_loss_fwd", x.T.Numel(), 4, 0, 1, 1)
	return d.newNode(out, func(o *V) {
		d.emitElementwise("tv_loss_bwd", x.T.Numel(), 6, 0, 2, 1)
		if x.needGrad && count > 0 {
			g := tensor.New(x.T.Shape...)
			scale := o.Grad.Data[0] * 2 / float32(count)
			for ni := 0; ni < n; ni++ {
				for ci := 0; ci < c; ci++ {
					for y := 0; y < h; y++ {
						for xx := 0; xx < w; xx++ {
							v := x.T.Data[at(ni, ci, y, xx)]
							if xx+1 < w {
								dv := scale * (x.T.Data[at(ni, ci, y, xx+1)] - v)
								g.Data[at(ni, ci, y, xx)] -= dv
								g.Data[at(ni, ci, y, xx+1)] += dv
							}
							if y+1 < h {
								dv := scale * (x.T.Data[at(ni, ci, y+1, xx)] - v)
								g.Data[at(ni, ci, y, xx)] -= dv
								g.Data[at(ni, ci, y+1, xx)] += dv
							}
						}
					}
				}
			}
			x.addGrad(g)
		}
	}, x), nil
}
