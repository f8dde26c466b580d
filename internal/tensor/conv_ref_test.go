package tensor

// Test-only references: the convolution kernels as they stood before the
// register-tiled rewrite, kept verbatim (only renamed). The differential
// test in conv_test.go holds the production kernels bit-identical to them.

import "fmt"

// refConv2D computes a NCHW convolution: x (N,C,H,W) * w (F,C,KH,KW) + b (F).
// b may be nil.
func refConv2D(x, w, b *Tensor, stride, pad int) (*Tensor, error) {
	if len(x.Shape) != 4 || len(w.Shape) != 4 {
		return nil, fmt.Errorf("tensor: conv2d wants 4-D, got %v * %v", x.Shape, w.Shape)
	}
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	f, cw, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	if c != cw {
		return nil, fmt.Errorf("tensor: conv2d channels %d != %d", c, cw)
	}
	oh, ow := ConvShape(h, kh, stride, pad), ConvShape(wd, kw, stride, pad)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("tensor: conv2d empty output for input %dx%d kernel %dx%d", h, wd, kh, kw)
	}
	out := New(n, f, oh, ow)
	// Accumulate tap by tap into the output plane instead of summing taps
	// per output element: each element still receives its contributions in
	// (ci, ky, kx) order starting from the bias, so the result is
	// bit-identical to the naive nest, but the inner loop becomes a
	// contiguous AXPY over an output row (stride 1) with the weight hoisted.
	for ni := 0; ni < n; ni++ {
		for fi := 0; fi < f; fi++ {
			plane := out.Data[(ni*f+fi)*oh*ow : (ni*f+fi+1)*oh*ow]
			if b != nil {
				bias := b.Data[fi]
				for i := range plane {
					plane[i] = bias
				}
			}
			for ci := 0; ci < c; ci++ {
				xplane := x.Data[(ni*c+ci)*h*wd : (ni*c+ci+1)*h*wd]
				wrow := w.Data[(fi*cw+ci)*kh*kw : (fi*cw+ci+1)*kh*kw]
				for ky := 0; ky < kh; ky++ {
					for oy := 0; oy < oh; oy++ {
						iy := oy*stride + ky - pad
						if iy < 0 || iy >= h {
							continue
						}
						xrow := xplane[iy*wd : iy*wd+wd]
						orow := plane[oy*ow : oy*ow+ow]
						for kx := 0; kx < kw; kx++ {
							wv := wrow[ky*kw+kx]
							oxLo, oxHi := refConvOxRange(kx, pad, stride, wd, ow)
							if oxLo > oxHi {
								continue
							}
							xoff := kx - pad
							if stride == 1 {
								xr := xrow[oxLo+xoff : oxHi+xoff+1]
								or := orow[oxLo : oxHi+1]
								for t := range or {
									or[t] += wv * xr[t]
								}
							} else {
								for ox := oxLo; ox <= oxHi; ox++ {
									orow[ox] += wv * xrow[ox*stride+xoff]
								}
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}

// refConvOxRange returns the inclusive output-column range [lo, hi] for which
// the input column ox*stride + kx - pad falls inside [0, wd). An empty range
// reports lo > hi.
func refConvOxRange(kx, pad, stride, wd, ow int) (lo, hi int) {
	lo = 0
	if num := pad - kx; num > 0 {
		lo = (num + stride - 1) / stride
	}
	hi = ow - 1
	if num := wd - 1 + pad - kx; num < 0 {
		return 1, 0
	} else if byInput := num / stride; byInput < hi {
		hi = byInput
	}
	return lo, hi
}

// refConv2DGrads computes input and weight gradients of refConv2D.
func refConv2DGrads(x, w, dy *Tensor, stride, pad int) (dx, dw, db *Tensor, err error) {
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	f, _, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	oh, ow := dy.Shape[2], dy.Shape[3]
	dx = New(n, c, h, wd)
	dw = New(f, c, kh, kw)
	db = New(f)
	// The loop nest (and with it every accumulation order into dx, dw, db)
	// matches the naive formulation exactly; only the inner kx walk changes,
	// from per-tap index arithmetic to contiguous slices — the valid kx range
	// is computed up front instead of bounds-checking ix per tap.
	for ni := 0; ni < n; ni++ {
		for fi := 0; fi < f; fi++ {
			for oy := 0; oy < oh; oy++ {
				dyRow := dy.Data[((ni*f+fi)*oh+oy)*ow : ((ni*f+fi)*oh+oy)*ow+ow]
				for ox := 0; ox < ow; ox++ {
					g := dyRow[ox]
					if g == 0 {
						continue
					}
					db.Data[fi] += g
					kxLo, kxHi := refConvKxRange(ox, pad, stride, wd, kw)
					if kxLo > kxHi {
						continue
					}
					span := kxHi - kxLo + 1
					for ci := 0; ci < c; ci++ {
						for ky := 0; ky < kh; ky++ {
							iy := oy*stride + ky - pad
							if iy < 0 || iy >= h {
								continue
							}
							xBase := ((ni*c+ci)*h+iy)*wd + ox*stride - pad + kxLo
							wBase := ((fi*c+ci)*kh+ky)*kw + kxLo
							xr := x.Data[xBase : xBase+span]
							wr := w.Data[wBase : wBase+span]
							dxr := dx.Data[xBase : xBase+span]
							dwr := dw.Data[wBase : wBase+span]
							for t := range xr {
								dxr[t] += g * wr[t]
								dwr[t] += g * xr[t]
							}
						}
					}
				}
			}
		}
	}
	return dx, dw, db, nil
}

// refConvKxRange returns the inclusive kernel-column range [lo, hi] for which
// the input column ox*stride + kx - pad falls inside [0, wd). An empty range
// reports lo > hi.
func refConvKxRange(ox, pad, stride, wd, kw int) (lo, hi int) {
	lo = 0
	if num := pad - ox*stride; num > 0 {
		lo = num
	}
	hi = kw - 1
	if byInput := wd - 1 - ox*stride + pad; byInput < hi {
		hi = byInput
	}
	return lo, hi
}

// refConvTranspose2D computes a NCHW transposed convolution (deconvolution):
// x (N,C,H,W), w (C,F,KH,KW), stride, pad. Output spatial size is
// (H-1)*stride - 2*pad + KH.
func refConvTranspose2D(x, w, b *Tensor, stride, pad int) (*Tensor, error) {
	if len(x.Shape) != 4 || len(w.Shape) != 4 {
		return nil, fmt.Errorf("tensor: convT wants 4-D, got %v * %v", x.Shape, w.Shape)
	}
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	cw, f, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	if c != cw {
		return nil, fmt.Errorf("tensor: convT channels %d != %d", c, cw)
	}
	oh := (h-1)*stride - 2*pad + kh
	ow := (wd-1)*stride - 2*pad + kw
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("tensor: convT empty output")
	}
	out := New(n, f, oh, ow)
	if b != nil {
		for ni := 0; ni < n; ni++ {
			for fi := 0; fi < f; fi++ {
				base := (ni*f + fi) * oh * ow
				for i := 0; i < oh*ow; i++ {
					out.Data[base+i] = b.Data[fi]
				}
			}
		}
	}
	// Same nest as the naive formulation (accumulation order into out is
	// unchanged); the kx walk becomes one contiguous AXPY per (ky, fi) over
	// the output row, with the valid kx range hoisted out of the loop.
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			for iy := 0; iy < h; iy++ {
				xRow := x.Data[((ni*c+ci)*h+iy)*wd : ((ni*c+ci)*h+iy)*wd+wd]
				for ix := 0; ix < wd; ix++ {
					xv := xRow[ix]
					if xv == 0 {
						continue
					}
					kxLo, kxHi := refConvKxRange(ix, pad, stride, ow, kw)
					if kxLo > kxHi {
						continue
					}
					span := kxHi - kxLo + 1
					for fi := 0; fi < f; fi++ {
						for ky := 0; ky < kh; ky++ {
							oy := iy*stride + ky - pad
							if oy < 0 || oy >= oh {
								continue
							}
							oBase := ((ni*f+fi)*oh+oy)*ow + ix*stride - pad + kxLo
							wBase := ((ci*f+fi)*kh+ky)*kw + kxLo
							or := out.Data[oBase : oBase+span]
							wr := w.Data[wBase : wBase+span]
							for t := range or {
								or[t] += xv * wr[t]
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}

// refConvTranspose2DGrads computes the gradients of refConvTranspose2D.
func refConvTranspose2DGrads(x, w, dy *Tensor, stride, pad int) (dx, dw, db *Tensor, err error) {
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	_, f, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	oh, ow := dy.Shape[2], dy.Shape[3]
	dx = New(n, c, h, wd)
	dw = New(c, f, kh, kw)
	db = New(f)
	for ni := 0; ni < n; ni++ {
		for fi := 0; fi < f; fi++ {
			base := (ni*f + fi) * oh * ow
			for i := 0; i < oh*ow; i++ {
				db.Data[fi] += dy.Data[base+i]
			}
		}
	}
	// Same nest as the naive formulation. dx[xi] accumulates through a local
	// running value seeded from the current entry — the identical sequence
	// of adds, kept in a register — and the kx walk uses contiguous slices.
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			for iy := 0; iy < h; iy++ {
				for ix := 0; ix < wd; ix++ {
					xi := ((ni*c+ci)*h+iy)*wd + ix
					xv := x.Data[xi]
					kxLo, kxHi := refConvKxRange(ix, pad, stride, ow, kw)
					if kxLo > kxHi {
						continue
					}
					span := kxHi - kxLo + 1
					acc := dx.Data[xi]
					for fi := 0; fi < f; fi++ {
						for ky := 0; ky < kh; ky++ {
							oy := iy*stride + ky - pad
							if oy < 0 || oy >= oh {
								continue
							}
							dyBase := ((ni*f+fi)*oh+oy)*ow + ix*stride - pad + kxLo
							wBase := ((ci*f+fi)*kh+ky)*kw + kxLo
							dyr := dy.Data[dyBase : dyBase+span]
							wr := w.Data[wBase : wBase+span]
							dwr := dw.Data[wBase : wBase+span]
							for t := range dyr {
								g := dyr[t]
								acc += g * wr[t]
								dwr[t] += g * xv
							}
						}
					}
					dx.Data[xi] = acc
				}
			}
		}
	}
	return dx, dw, db, nil
}
