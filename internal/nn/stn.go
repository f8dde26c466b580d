package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// AffineGrid generates a (B, H, W, 2) sampling grid from affine parameters
// theta (B, 2, 3) over normalized coordinates in [-1, 1] — the first half of
// a spatial transformer.
func AffineGrid(theta *V, h, w int) (*V, error) {
	if len(theta.T.Shape) != 3 || theta.T.Shape[1] != 2 || theta.T.Shape[2] != 3 {
		return nil, fmt.Errorf("nn: affine grid theta %v", theta.T.Shape)
	}
	d := theta.dev
	b := theta.T.Shape[0]
	grid := tensor.New(b, h, w, 2)
	norm := func(i, n int) float32 {
		if n == 1 {
			return 0
		}
		return 2*float32(i)/float32(n-1) - 1
	}
	for bi := 0; bi < b; bi++ {
		th := theta.T.Data[bi*6 : (bi+1)*6]
		for y := 0; y < h; y++ {
			yn := norm(y, h)
			for x := 0; x < w; x++ {
				xn := norm(x, w)
				idx := ((bi*h+y)*w + x) * 2
				grid.Data[idx] = th[0]*xn + th[1]*yn + th[2]
				grid.Data[idx+1] = th[3]*xn + th[4]*yn + th[5]
			}
		}
	}
	d.emitElementwise("affine_grid_generator", b*h*w, 6, 0, 1, 1)
	return d.newNode(grid, func(o *V) {
		d.emitReduce("affine_grid_generator_bwd", b*h*w*2)
		if theta.needGrad {
			g := tensor.New(b, 2, 3)
			for bi := 0; bi < b; bi++ {
				for y := 0; y < h; y++ {
					yn := norm(y, h)
					for x := 0; x < w; x++ {
						xn := norm(x, w)
						idx := ((bi*h+y)*w + x) * 2
						gx, gy := o.Grad.Data[idx], o.Grad.Data[idx+1]
						g.Data[bi*6+0] += gx * xn
						g.Data[bi*6+1] += gx * yn
						g.Data[bi*6+2] += gx
						g.Data[bi*6+3] += gy * xn
						g.Data[bi*6+4] += gy * yn
						g.Data[bi*6+5] += gy
					}
				}
			}
			theta.addGrad(g)
		}
	}, theta), nil
}

// GridSample bilinearly samples x (B, C, H, W) at the normalized grid
// locations (B, OH, OW, 2), with zero padding outside — the second half of a
// spatial transformer.
func GridSample(x, grid *V) (*V, error) {
	if len(x.T.Shape) != 4 || len(grid.T.Shape) != 4 || grid.T.Shape[3] != 2 {
		return nil, fmt.Errorf("nn: grid sample x %v grid %v", x.T.Shape, grid.T.Shape)
	}
	if x.T.Shape[0] != grid.T.Shape[0] {
		return nil, fmt.Errorf("nn: grid sample batch %d vs %d", x.T.Shape[0], grid.T.Shape[0])
	}
	d := x.dev
	b, c, h, w := x.T.Shape[0], x.T.Shape[1], x.T.Shape[2], x.T.Shape[3]
	oh, ow := grid.T.Shape[1], grid.T.Shape[2]
	out := tensor.New(b, c, oh, ow)

	// unnormalize maps [-1,1] to pixel coordinates.
	ux := func(v float32) float64 { return (float64(v) + 1) / 2 * float64(w-1) }
	uy := func(v float32) float64 { return (float64(v) + 1) / 2 * float64(h-1) }
	pix := func(bi, ci, yy, xx int) float32 {
		if yy < 0 || yy >= h || xx < 0 || xx >= w {
			return 0
		}
		return x.T.Data[((bi*c+ci)*h+yy)*w+xx]
	}
	for bi := 0; bi < b; bi++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				gidx := ((bi*oh+oy)*ow + ox) * 2
				sx, sy := ux(grid.T.Data[gidx]), uy(grid.T.Data[gidx+1])
				x0, y0 := int(math.Floor(sx)), int(math.Floor(sy))
				fx, fy := float32(sx-float64(x0)), float32(sy-float64(y0))
				for ci := 0; ci < c; ci++ {
					v := (1-fy)*((1-fx)*pix(bi, ci, y0, x0)+fx*pix(bi, ci, y0, x0+1)) +
						fy*((1-fx)*pix(bi, ci, y0+1, x0)+fx*pix(bi, ci, y0+1, x0+1))
					out.Data[((bi*c+ci)*oh+oy)*ow+ox] = v
				}
			}
		}
	}
	d.emitElementwise("grid_sampler_2d_fwd", b*c*oh*ow, 8, 0, 2, 1)

	return d.newNode(out, func(o *V) {
		d.emitElementwise("grid_sampler_2d_bwd", b*c*oh*ow, 12, 0, 3, 2)
		var dx *tensor.Tensor
		var dgrid *tensor.Tensor
		if x.needGrad {
			dx = tensor.New(x.T.Shape...)
		}
		if grid.needGrad {
			dgrid = tensor.New(grid.T.Shape...)
		}
		scatter := func(bi, ci, yy, xx int, g float32) {
			if dx == nil || yy < 0 || yy >= h || xx < 0 || xx >= w {
				return
			}
			dx.Data[((bi*c+ci)*h+yy)*w+xx] += g
		}
		for bi := 0; bi < b; bi++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					gidx := ((bi*oh+oy)*ow + ox) * 2
					sx, sy := ux(grid.T.Data[gidx]), uy(grid.T.Data[gidx+1])
					x0, y0 := int(math.Floor(sx)), int(math.Floor(sy))
					fx, fy := float32(sx-float64(x0)), float32(sy-float64(y0))
					var dsx, dsy float32
					for ci := 0; ci < c; ci++ {
						g := o.Grad.Data[((bi*c+ci)*oh+oy)*ow+ox]
						scatter(bi, ci, y0, x0, g*(1-fy)*(1-fx))
						scatter(bi, ci, y0, x0+1, g*(1-fy)*fx)
						scatter(bi, ci, y0+1, x0, g*fy*(1-fx))
						scatter(bi, ci, y0+1, x0+1, g*fy*fx)
						// Spatial gradients for the grid.
						p00, p01 := pix(bi, ci, y0, x0), pix(bi, ci, y0, x0+1)
						p10, p11 := pix(bi, ci, y0+1, x0), pix(bi, ci, y0+1, x0+1)
						dsx += g * ((1-fy)*(p01-p00) + fy*(p11-p10))
						dsy += g * ((1-fx)*(p10-p00) + fx*(p11-p01))
					}
					if dgrid != nil {
						dgrid.Data[gidx] += dsx * float32(w-1) / 2
						dgrid.Data[gidx+1] += dsy * float32(h-1) / 2
					}
				}
			}
		}
		if x.needGrad {
			x.addGrad(dx)
		}
		if grid.needGrad {
			grid.addGrad(dgrid)
		}
	}, x, grid), nil
}
