// Package tensor provides the dense FP32 tensor type and the CPU math
// routines (GEMM, convolution, pooling, reductions) underlying the neural-
// network framework in internal/nn. This package is pure computation; kernel
// emission onto the device model happens one layer up, in internal/nn, with
// counts derived from the shapes processed here.
//
// # Convolution accumulation order
//
// Float32 addition is not associative, so the convolution kernels fix, for
// every output element, the value its sum starts from and the order its
// products are added in. Taps that fall on the padding add nothing.
//
//   - Conv2D: y[n,f,oy,ox] starts at b[f] (+0 when b is nil) and adds w*x
//     over (ci, ky, kx) in ascending order.
//   - Conv2DGrads: dw[f,c,ky,kx] starts at +0 and adds over (n, oy, ox)
//     in ascending order. dx[n,c,iy,ix] starts at +0 and adds over f, then
//     over the (oy, ox) it reaches in ascending order, which is descending
//     (ky, kx). Every term whose dy is zero is skipped.
//   - ConvTranspose2D: y[n,f,oy,ox] starts at b[f] (+0 when b is nil) and
//     adds x*w over (ci, iy, ix) in ascending order, skipping zero x.
//   - ConvTranspose2DGrads: dx[n,c,iy,ix] adds over (f, ky, kx) and
//     dw[c,f,ky,kx] over (n, iy, ix), both from +0 in ascending order, with
//     no skips.
//   - Both gradients: db[f] starts at +0 and adds dy over (n, oy, ox) in
//     ascending order. Skipping its zero dy would change nothing: a sum
//     that starts at +0 never becomes -0, and adding ±0 leaves any other
//     value as it is.
//
// The skips are part of the contract: they decide the sign of a zero sum
// and whether 0·Inf turns it into NaN. The kernels nonetheless add every
// term, and meet the skips by construction wherever that is exact:
//
//   - A skipped term is 0·v. For a finite v it is ±0, and adding ±0 leaves
//     every sum but -0 as it is. A sum that starts at +0, or at a bias
//     other than -0, never becomes -0: x + y is -0 only when both are.
//   - For an infinite or NaN v, 0·v is NaN, and a sum that adds a NaN
//     stays NaN.
//   - So a sum that adds every term equals the skipping sum unless it
//     comes out NaN or starts at a -0 bias. The kernels redo those
//     sums with the skips: each NaN sum, and every sum of a ConvTranspose2D
//     filter tile with a -0 bias.
//   - A product that is not NaN has the same bits in either operand order,
//     so the kernels multiply in whichever order suits them outside these
//     redone sums.
//
// The kernels tile, reorder their loops and repack operands freely within
// this order, and are tested bit for bit against the naive nests.
//
// # Packed kernels on amd64
//
// On amd64 the inner loops of the convolution sums and of MatMul's row
// update are assembler (sum_amd64.s): one MULPS and one ADDPS add a term
// to four lanes. Lane j of those instructions is the IEEE single-precision
// multiply or add that MULSS or ADDSS performs, Go neither fuses nor
// changes the rounding mode on amd64, and the kernels use no FMA, so every
// sum has the bits of the Go loops in sum_other.go, which the other
// architectures run. Those write each product as float32(x*y), which rounds
// it and so forbids fusing it with the add. Assembler checks no index:
// before each call the Go caller reads the largest index the kernel will
// read, with an ordinary bounds check, so a bad range panics instead.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Tensor is a dense row-major FP32 tensor.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zero tensor of the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dim %v", shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// Randn fills a new tensor with N(0, std) samples.
func Randn(r *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(r.NormFloat64() * std)
	}
	return t
}

// Full returns a new tensor filled with v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Numel returns the number of elements.
func (t *Tensor) Numel() int { return len(t.Data) }

// Bytes returns the size in bytes (4 per element).
func (t *Tensor) Bytes() uint64 { return uint64(len(t.Data)) * 4 }

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	out := &Tensor{Shape: append([]int(nil), t.Shape...), Data: make([]float32, len(t.Data))}
	copy(out.Data, t.Data)
	return out
}

// Reshape returns a view with a new shape of equal element count.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		return nil, fmt.Errorf("tensor: reshape %v -> %v", t.Shape, shape)
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}, nil
}

// SameShape reports whether two tensors have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}

// Zero clears the tensor in place.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// AddScaled accumulates alpha*src into t (shapes must match).
func (t *Tensor) AddScaled(src *Tensor, alpha float32) error {
	if len(src.Data) != len(t.Data) {
		return fmt.Errorf("tensor: addScaled %v += %v", t.Shape, src.Shape)
	}
	for i, v := range src.Data {
		t.Data[i] += float32(alpha * v)
	}
	return nil
}

// MatMul computes C = A(M,K) x B(K,N). transA/transB interpret A as (K,M)
// or B as (N,K) respectively, matching BLAS conventions.
func MatMul(a, b *Tensor, transA, transB bool) (*Tensor, error) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		return nil, fmt.Errorf("tensor: matmul wants 2-D, got %v x %v", a.Shape, b.Shape)
	}
	m, k := a.Shape[0], a.Shape[1]
	if transA {
		m, k = k, m
	}
	k2, n := b.Shape[0], b.Shape[1]
	if transB {
		k2, n = n, k2
	}
	if k != k2 {
		return nil, fmt.Errorf("tensor: matmul inner dims %d != %d", k, k2)
	}
	c := New(m, n)
	lda := a.Shape[1]
	// B's rows in kk order: with transB, a k×n row-major copy made once,
	// so every row update below runs through axpy.
	bk := b.Data
	if transB {
		bk = make([]float32, k*n)
		for j := 0; j < n; j++ {
			for kk, v := range b.Data[j*k : (j+1)*k] {
				bk[kk*n+j] = v
			}
		}
	}
	for i := 0; i < m; i++ {
		for kk := 0; kk < k; kk++ {
			var av float32
			if transA {
				av = a.Data[kk*lda+i]
			} else {
				av = a.Data[i*lda+kk]
			}
			if av == 0 {
				continue
			}
			axpy(c.Data[i*n:(i+1)*n], bk[kk*n:(kk+1)*n], av)
		}
	}
	return c, nil
}

// ConvShape computes the output spatial size of a convolution.
func ConvShape(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// Conv2D computes a NCHW convolution: x (N,C,H,W) * w (F,C,KH,KW) + b (F).
// b may be nil.
func Conv2D(x, w, b *Tensor, stride, pad int) (*Tensor, error) {
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
	hw, kk := h*wd, kh*kw
	// Output-stationary over a tile of filters: y[fi, p] starts from the
	// bias and adds w*x over (ci, ky, kx), i.e. channel by channel over
	// the output pixel's terms (x pixel, tap).
	tab := newConvTable(convAxis{h, oh, kh, stride, pad}, convAxis{wd, ow, kw, stride, pad}, perOut)
	wt := make([][convTile]float32, c*kk)
	for f0 := 0; f0 < f; f0 += convTile {
		convLanes(wt, w.Data, f0, f, 1, c*kk, c*kk, 0)
		var bias [convTile]float32
		if b != nil {
			copy(bias[:], b.Data[f0:])
		}
		convSums(tab, bias, x.Data, c*hw, hw, wt, kk, c, false, out.Data, f, f0)
	}
	return out, nil
}

// Conv2DGrads computes the gradients of Conv2D: dx when needDX, dw when
// needDW, and db always. A gradient not asked for is nil and costs
// nothing.
func Conv2DGrads(x, w, dy *Tensor, stride, pad int, needDX, needDW bool) (dx, dw, db *Tensor, err error) {
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	f, _, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	oh, ow := dy.Shape[2], dy.Shape[3]
	hw, ohw, kk := h*wd, oh*ow, kh*kw
	ya, xa := convAxis{h, oh, kh, stride, pad}, convAxis{wd, ow, kw, stride, pad}
	db = convBiasGrad(dy)

	// dw[fi, ci, tap] sums g*x over (ni, oy, ox): sample by sample over the
	// tap's terms (dy pixel, x pixel), a tile of channels sharing each g.
	if needDW {
		dw = New(f, c, kh, kw)
		tab := newConvTable(ya, xa, perTap)
		xt := make([][convTile]float32, n*hw)
		for c0 := 0; c0 < c; c0 += convTile {
			convLanes(xt, x.Data, c0, c, n, hw, hw, c*hw)
			convSums(tab, [convTile]float32{}, dy.Data, ohw, f*ohw, xt, hw, n, true, dw.Data, c, c0)
		}
	}

	// dx[ni, ci, iy, ix] sums g*w over fi, then over the x pixel's
	// (oy, ox) contributors in ascending order: filter by filter over its
	// terms (dy pixel, tap), a tile of channels sharing each g.
	if needDX {
		dx = New(n, c, h, wd)
		tab := newConvTable(ya, xa, perIn)
		wt := make([][convTile]float32, f*kk)
		for c0 := 0; c0 < c; c0 += convTile {
			convLanes(wt, w.Data, c0, c, f, kk, kk, c*kk)
			convSums(tab, [convTile]float32{}, dy.Data, f*ohw, ohw, wt, kk, f, true, dx.Data, c, c0)
		}
	}
	return dx, dw, db, nil
}

// convBiasGrad returns db for dy (N,F,OH,OW): db[f] sums filter f's dy
// from +0 in ascending (n, oy, ox) order.
func convBiasGrad(dy *Tensor) *Tensor {
	n, f, ohw := dy.Shape[0], dy.Shape[1], dy.Shape[2]*dy.Shape[3]
	db := New(f)
	for fi := range db.Data {
		var s float32
		for ni := 0; ni < n; ni++ {
			for _, g := range dy.Data[(ni*f+fi)*ohw : (ni*f+fi+1)*ohw] {
				s += g
			}
		}
		db.Data[fi] = s
	}
	return db
}

// ConvTranspose2D computes a NCHW transposed convolution (deconvolution):
// x (N,C,H,W), w (C,F,KH,KW), stride, pad. Output spatial size is
// (H-1)*stride - 2*pad + KH.
func ConvTranspose2D(x, w, b *Tensor, stride, pad int) (*Tensor, error) {
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
	hw, kk := h*wd, kh*kw
	// The transposed convolution is the input gradient of a convolution
	// from the (oh, ow) plane, its input, to the (h, w) plane, its output.
	// y[fi, p] starts from the bias and adds x*w over (ci, iy, ix),
	// skipping zero x: channel by channel over the y pixel's terms
	// (x pixel, tap), a tile of filters sharing each x.
	tab := newConvTable(convAxis{oh, h, kh, stride, pad}, convAxis{ow, wd, kw, stride, pad}, perIn)
	wt := make([][convTile]float32, c*kk)
	for f0 := 0; f0 < f; f0 += convTile {
		convLanes(wt, w.Data, f0, f, c, kk, kk, f*kk)
		var bias [convTile]float32
		if b != nil {
			copy(bias[:], b.Data[f0:])
		}
		convSums(tab, bias, x.Data, c*hw, hw, wt, kk, c, true, out.Data, f, f0)
	}
	return out, nil
}

// ConvTranspose2DGrads computes the gradients of ConvTranspose2D: dx when
// needDX, dw when needDW, and db always. A gradient not asked for is nil
// and costs nothing.
func ConvTranspose2DGrads(x, w, dy *Tensor, stride, pad int, needDX, needDW bool) (dx, dw, db *Tensor, err error) {
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	_, f, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	oh, ow := dy.Shape[2], dy.Shape[3]
	hw, ohw, kk := h*wd, oh*ow, kh*kw
	ya, xa := convAxis{oh, h, kh, stride, pad}, convAxis{ow, wd, kw, stride, pad}
	db = convBiasGrad(dy)

	// dx[ni, ci, iy, ix] sums g*w over (fi, ky, kx): filter by filter over
	// the x pixel's terms (dy pixel, tap), a tile of channels sharing each g.
	if needDX {
		dx = New(n, c, h, wd)
		tab := newConvTable(ya, xa, perOut)
		wt := make([][convTile]float32, f*kk)
		for c0 := 0; c0 < c; c0 += convTile {
			convLanes(wt, w.Data, c0, c, f, kk, f*kk, kk)
			convSums(tab, [convTile]float32{}, dy.Data, f*ohw, ohw, wt, kk, f, false, dx.Data, c, c0)
		}
	}

	// dw[ci, fi, tap] sums g*x over (ni, iy, ix): sample by sample over the
	// tap's terms (x pixel, dy pixel), a tile of filters sharing each x.
	if needDW {
		dw = New(c, f, kh, kw)
		tab := newConvTable(ya, xa, perTap)
		dyt := make([][convTile]float32, n*ohw)
		for f0 := 0; f0 < f; f0 += convTile {
			convLanes(dyt, dy.Data, f0, f, n, ohw, ohw, f*ohw)
			convSums(tab, [convTile]float32{}, x.Data, hw, c*hw, dyt, ohw, n, false, dw.Data, f, f0)
		}
	}
	return dx, dw, db, nil
}

// convTile is the register-tile width of the convolution kernels: each
// sum runs for 4 filters or 4 channels at once, the lanes of one
// accumulator set sharing every load of the other operand. A count that
// is not a multiple of 4 runs in zero-padded lanes that are never stored.
const convTile = 4

// convAxis is one spatial axis of a convolution: output positions
// o < out and kernel offsets k < k read input positions
// i = o*stride + k - pad, and only those with 0 <= i < in take part.
type convAxis struct{ in, out, k, stride, pad int }

// A convRole names what a convolution sum is taken for, and with it the
// two indices each term carries: the scalar operand's and the lane
// operand's. In Conv2D's terms:
//   - perOut sums for an output position over k ascending; terms (i, k).
//   - perTap sums for a kernel offset over o ascending; terms (o, i).
//   - perIn sums for an input position over o ascending; terms (o, k).
type convRole int

const (
	perOut convRole = iota
	perTap
	perIn
)

// terms lists, for every position of the role along this axis, the index
// pairs of its sum in summation order, and the extents sn and vn of the
// s and v index ranges.
func (a convAxis) terms(role convRole) (lists [][]convTerm, sn, vn int) {
	// Every list gets room for its longest possible length up front, in
	// one backing array, so the appends below never reallocate.
	n, most := a.out, a.k
	switch role {
	case perOut:
		sn, vn = a.in, a.k
	case perTap:
		n, most, sn, vn = a.k, a.out, a.out, a.in
	case perIn:
		n, sn, vn = a.in, a.out, a.k
	}
	buf := make([]convTerm, n*most)
	lists = make([][]convTerm, n)
	for p := range lists {
		lists[p] = buf[p*most : p*most : (p+1)*most]
	}
	for o := 0; o < a.out; o++ {
		for k := 0; k < a.k; k++ {
			i := o*a.stride + k - a.pad
			if i < 0 || i >= a.in {
				continue
			}
			switch role {
			case perOut:
				lists[o] = append(lists[o], convTerm{uint32(i), uint32(k)})
			case perTap:
				lists[k] = append(lists[k], convTerm{uint32(o), uint32(i)})
			case perIn:
				lists[i] = append(lists[i], convTerm{uint32(o), uint32(k)})
			}
		}
	}
	return lists, sn, vn
}

// convTerm is one product of a convolution sum: s indexes the scalar
// operand and v the lane operand, each within one block of the sum.
type convTerm struct{ s, v uint32 }

// convTable holds every sum of a 2-D convolution for one role. The sum
// for position p (row-major over the role's y and x positions) adds the
// terms of class[pos[p].class], each index offset by pos[p].s and
// pos[p].v. Positions whose sums differ only by those offsets (all
// interior pixels, for one) share a class, so the table stays small.
// hi[c] holds the largest s and the largest v index of class c's terms.
type convTable struct {
	class [][]convTerm
	hi    []convTerm
	pos   []convPos
}

// convPos places one position's sum: its class and the offsets its
// terms' s and v indices are shifted by.
type convPos struct{ class, s, v uint32 }

// newConvTable builds the table for role from the y and x axes: a
// position's terms are its y terms times its x terms, y-major, which is
// the (row, column) order of the naive nests. Both indices of a term are
// row-major in their plane.
func newConvTable(y, x convAxis, role convRole) convTable {
	ylists, _, _ := y.terms(role)
	xlists, sw, vw := x.terms(role)
	yc, ys := convClasses(ylists)
	xc, xs := convClasses(xlists)
	at := func(a, b convTerm) convTerm { return convTerm{a.s*uint32(sw) + b.s, a.v*uint32(vw) + b.v} }
	t := convTable{
		class: make([][]convTerm, 0, len(yc)*len(xc)),
		hi:    make([]convTerm, 0, len(yc)*len(xc)),
		pos:   make([]convPos, 0, len(ys)*len(xs)),
	}
	var ny, nx int
	for _, ty := range yc {
		ny += len(ty)
	}
	for _, tx := range xc {
		nx += len(tx)
	}
	buf := make([]convTerm, 0, ny*nx)
	for _, ty := range yc {
		for _, tx := range xc {
			start := len(buf)
			for _, a := range ty {
				for _, b := range tx {
					buf = append(buf, at(a, b))
				}
			}
			var hi convTerm
			for _, c := range buf[start:] {
				hi = convTerm{max(hi.s, c.s), max(hi.v, c.v)}
			}
			t.class = append(t.class, buf[start:len(buf):len(buf)])
			t.hi = append(t.hi, hi)
		}
	}
	for _, py := range ys {
		for _, px := range xs {
			off := at(convTerm{py.s, py.v}, convTerm{px.s, px.v})
			t.pos = append(t.pos, convPos{py.class*uint32(len(xc)) + px.class, off.s, off.v})
		}
	}
	return t
}

// convClasses shifts each list by its smallest s and v, so its indices
// start at 0, and merges lists that become equal. It returns the
// distinct shifted lists and, per list, its class and shift.
func convClasses(lists [][]convTerm) (classes [][]convTerm, pos []convPos) {
	pos = make([]convPos, len(lists))
	var rel []convTerm
	for i, l := range lists {
		p := &pos[i]
		if len(l) > 0 {
			p.s, p.v = l[0].s, l[0].v
			for _, t := range l {
				p.s, p.v = min(p.s, t.s), min(p.v, t.v)
			}
		}
		rel = rel[:0]
		for _, t := range l {
			rel = append(rel, convTerm{t.s - p.s, t.v - p.v})
		}
		c := slices.IndexFunc(classes, func(c []convTerm) bool { return slices.Equal(c, rel) })
		if c < 0 {
			c = len(classes)
			classes = append(classes, slices.Clone(rel))
		}
		p.class = uint32(c)
	}
	return classes, pos
}

// convLanes fills dst, outer*inner elements, with the rows r0..r0+3 of an
// (outer, rows, inner) view of data whose element (o, r, k) sits at
// o*outerStride + r*rowStride + k: lane j of dst[o*inner+k] holds row
// r0+j, or 0 past the last row.
func convLanes(dst [][convTile]float32, data []float32, r0, rows, outer, inner, rowStride, outerStride int) {
	for o := 0; o < outer; o++ {
		d := dst[o*inner : (o+1)*inner]
		for j := 0; j < convTile; j++ {
			if r0+j >= rows {
				for k := range d {
					d[k][j] = 0
				}
				continue
			}
			src := data[o*outerStride+(r0+j)*rowStride:][:inner]
			for k, v := range src {
				d[k][j] = v
			}
		}
	}
}

// convSums computes the sums of tab for every block of the scalar
// operand, block b's sums reading s[b*ds:], and stores lane j of block
// b's sum for position p at out[(b*rows+r0+j)*len(tab.pos)+p]: out is a
// (blocks, rows, positions) array whose rows r0..r0+3 the lanes fill.
//
// A sum starts at init and adds all its terms: two blocks at a time
// through convSum2, which shares every lane load between the pair, and
// an odd last block alone through convSum. skip says the contract skips
// terms whose scalar is zero. Adding such a term anyway changes a sum only
// if the sum turns NaN or starts at -0 (see the package doc), so those
// sums are then redone through convSumNonzero.
//
// The kernels check no index, so before each call convSums reads the
// largest index the sum takes in each operand, a bounds-checked read:
// the indices are sums of non-negative offsets and strides, so every
// other one is smaller.
func convSums(tab convTable, init [convTile]float32, s []float32, ds, ss int, v [][convTile]float32, vs, nb int, skip bool, out []float32, rows, r0 int) {
	np := len(tab.pos)
	blocks, lanes := len(out)/(rows*np), min(convTile, rows-r0)
	nan := false
	for b := 0; b < blocks; b += 2 {
		o := (b*rows + r0) * np
		for p, at := range tab.pos {
			terms, sb, vb := tab.class[at.class], s[b*ds+int(at.s):], v[at.v:]
			if len(terms) > 0 && nb > 0 {
				hi := tab.hi[at.class]
				last := (nb-1)*ss + int(hi.s)
				if b+1 < blocks {
					last += ds
				}
				_, _ = sb[last], vb[(nb-1)*vs+int(hi.v)]
			}
			acc := init
			if b+1 < blocks {
				acc2 := init
				convSum2(&acc, &acc2, terms, sb, ds, ss, vb, vs, nb)
				convStore(out[o+rows*np+p:], np, &acc2, lanes)
				nan = nan || skip && mayHaveNaN(&acc2)
			} else {
				convSum(&acc, terms, sb, ss, vb, vs, nb)
			}
			convStore(out[o+p:], np, &acc, lanes)
			nan = nan || skip && mayHaveNaN(&acc)
		}
	}
	if !skip {
		return
	}
	all := slices.ContainsFunc(init[:], isNegZero)
	if !nan && !all {
		return
	}
	for b := 0; b < blocks; b++ {
		o := (b*rows + r0) * np
		for p, at := range tab.pos {
			redo := all
			for j := 0; j < lanes; j++ {
				y := out[o+j*np+p]
				redo = redo || y != y
			}
			if redo {
				acc := init
				convSumNonzero(&acc, tab.class[at.class], s[b*ds+int(at.s):], ss, v[at.v:], vs, nb)
				convStore(out[o+p:], np, &acc, lanes)
			}
		}
	}
}

// convStore writes the first lanes of acc to dst[j*stride].
func convStore(dst []float32, stride int, acc *[convTile]float32, lanes int) {
	for j := 0; j < lanes; j++ {
		dst[j*stride] = acc[j]
	}
}

// convSumNonzero is convSum skipping every term whose scalar is zero, as
// the naive nests skip a zero dy (or a zero x in the transposed
// convolution). The skip is visible: adding 0*v would turn a sum of -0
// into +0 and, for an infinite or NaN v, into NaN. convSums runs it only
// for the sums where that happens.
func convSumNonzero(acc *[convTile]float32, terms []convTerm, s []float32, ss int, v [][convTile]float32, vs, nb int) {
	a0, a1, a2, a3 := acc[0], acc[1], acc[2], acc[3]
	for so, vo := 0, 0; so < nb*ss; so, vo = so+ss, vo+vs {
		for _, t := range terms {
			sv := s[so+int(t.s)]
			if sv == 0 {
				continue
			}
			q := &v[vo+int(t.v)]
			a0 += float32(sv * q[0])
			a1 += float32(sv * q[1])
			a2 += float32(sv * q[2])
			a3 += float32(sv * q[3])
		}
	}
	*acc = [convTile]float32{a0, a1, a2, a3}
}

// mayHaveNaN reports whether a lane of a may be NaN. The lanes' sum is
// NaN if one is; it is also NaN when +Inf meets -Inf on the way, a false
// alarm that convSums's lane-by-lane recheck clears.
func mayHaveNaN(a *[convTile]float32) bool {
	x := (a[0] + a[1]) + (a[2] + a[3])
	return x != x
}

func isNegZero(v float32) bool { return v == 0 && math.Signbit(float64(v)) }

// MaxPool2D computes 2x2-style max pooling with the given window and stride,
// returning the output and the argmax indices (into the input) for backward.
func MaxPool2D(x *Tensor, window, stride int) (*Tensor, []int32, error) {
	if len(x.Shape) != 4 {
		return nil, nil, fmt.Errorf("tensor: maxpool wants 4-D, got %v", x.Shape)
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := (h-window)/stride+1, (w-window)/stride+1
	if oh <= 0 || ow <= 0 {
		return nil, nil, fmt.Errorf("tensor: maxpool empty output")
	}
	out := New(n, c, oh, ow)
	arg := make([]int32, out.Numel())
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := float32(math.Inf(-1))
					bestIdx := 0
					for ky := 0; ky < window; ky++ {
						for kx := 0; kx < window; kx++ {
							idx := ((ni*c+ci)*h+oy*stride+ky)*w + ox*stride + kx
							if x.Data[idx] > best {
								best, bestIdx = x.Data[idx], idx
							}
						}
					}
					oi := ((ni*c+ci)*oh+oy)*ow + ox
					out.Data[oi] = best
					arg[oi] = int32(bestIdx)
				}
			}
		}
	}
	return out, arg, nil
}

// Softmax computes row-wise softmax of a 2-D tensor.
func Softmax(x *Tensor) (*Tensor, error) {
	if len(x.Shape) != 2 {
		return nil, fmt.Errorf("tensor: softmax wants 2-D, got %v", x.Shape)
	}
	m, n := x.Shape[0], x.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		row := x.Data[i*n : (i+1)*n]
		max := row[0]
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		var sum float32
		o := out.Data[i*n : (i+1)*n]
		for j, v := range row {
			e := float32(math.Exp(float64(v - max)))
			o[j] = e
			sum += e
		}
		for j := range o {
			o[j] /= sum
		}
	}
	return out, nil
}
