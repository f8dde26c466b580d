package md

import (
	"fmt"
	"math"
	"slices"
)

// cellList bins particles into cubic cells of at least the cutoff length so
// neighbor search only scans the 27 surrounding cells. It is laid out CSR:
// cell c owns entries start[c] to start[c+1], whose particles (index)
// ascend and whose coordinates x, y and z are copied in the same order.
type cellList struct {
	side    int     // cells per box edge
	size    float64 // cell edge
	start   []int32 // side³+1 entry offsets
	index   []int32
	x, y, z []float64
	// exact marks the cells that hold an off-grid particle (see offGrid):
	// the search tests their entries with the exact minimum image.
	exact []bool
	// cursor is the search's per-cell first entry above the particle
	// being searched.
	cursor []int32
}

// bin fills cl with s's particles, in cells of edge >= cellSize, by a
// counting sort that reuses cl's buffers.
func (cl *cellList) bin(s *System, cellSize float64) error {
	if cellSize <= 0 {
		return fmt.Errorf("md: non-positive cell size %g", cellSize)
	}
	side := int(s.Box / cellSize)
	if side < 1 {
		side = 1
	}
	if side > 64 {
		side = 64
	}
	cl.side, cl.size = side, s.Box/float64(side)
	nc := side * side * side
	cl.start = resize(cl.start, nc+1)
	cl.cursor = resize(cl.cursor, nc)
	cl.exact = resize(cl.exact, nc)
	cl.index = resize(cl.index, s.N)
	cl.x, cl.y, cl.z = resize(cl.x, s.N), resize(cl.y, s.N), resize(cl.z, s.N)
	clear(cl.start)
	clear(cl.exact)
	for i, p := range s.Pos[:s.N] {
		c, off := cl.cellOf(p)
		cl.start[c+1]++
		if off {
			if !finite(p) {
				return fmt.Errorf("md: particle %d has non-finite position %v", i, p)
			}
			cl.exact[c] = true
		}
	}
	for c := 0; c < nc; c++ {
		cl.start[c+1] += cl.start[c]
	}
	copy(cl.cursor, cl.start)
	for i, p := range s.Pos[:s.N] {
		c, _ := cl.cellOf(p)
		e := cl.cursor[c]
		cl.cursor[c]++
		cl.index[e] = int32(i)
		cl.x[e], cl.y[e], cl.z[e] = p[0], p[1], p[2]
	}
	return nil
}

// resize returns buf with length n, reusing its storage when it is large
// enough. The contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// cellOf returns the cell p is binned into and whether p is off-grid.
func (cl *cellList) cellOf(p Vec3) (int, bool) {
	ix, iy, iz := int(p[0]/cl.size), int(p[1]/cl.size), int(p[2]/cl.size)
	return (cl.wrap(ix)*cl.side+cl.wrap(iy))*cl.side + cl.wrap(iz),
		cl.offGrid(p, ix, iy, iz)
}

// wrap folds a cell coordinate into [0, side).
func (cl *cellList) wrap(c int) int {
	c %= cl.side
	if c < 0 {
		c += cl.side
	}
	return c
}

// offGrid reports whether p, whose truncated cell coordinates are ix, iy
// and iz, lies outside the cell grid the shifted search assumes: a
// coordinate that is negative or NaN, or whose cell coordinate is not in
// [0, side). A coordinate just below Box whose quotient rounds up to side
// is the case that arises in practice (see the package doc).
func (cl *cellList) offGrid(p Vec3, ix, iy, iz int) bool {
	side := uint(cl.side)
	return !(p[0] >= 0 && p[1] >= 0 && p[2] >= 0) ||
		uint(ix) >= side || uint(iy) >= side || uint(iz) >= side
}

// finite reports whether every coordinate of p is finite.
func finite(p Vec3) bool {
	return !math.IsNaN(p[0]) && !math.IsInf(p[0], 0) &&
		!math.IsNaN(p[1]) && !math.IsInf(p[1], 0) &&
		!math.IsNaN(p[2]) && !math.IsInf(p[2], 0)
}

// NeighborList is a CSR half neighbor list (each pair stored once, i<j by
// construction of the search).
type NeighborList struct {
	Offsets []int32
	Neigh   []int32
	// Cutoff is the list cutoff (force cutoff + skin).
	Cutoff float64
}

// Pairs returns the number of stored pairs.
func (nl *NeighborList) Pairs() int { return len(nl.Neigh) }

// NeighborsOf returns particle i's neighbor slice.
func (nl *NeighborList) NeighborsOf(i int) []int32 {
	return nl.Neigh[nl.Offsets[i]:nl.Offsets[i+1]]
}

// neighborCell is one cell a particle's search scans, with the per-axis
// shift that carries the cell's particles next to the searching one.
type neighborCell struct {
	id         int
	sx, sy, sz float64
}

// build rebuilds nl for s in place, binning through cl; both keep their
// buffers from the previous build. Particle i's neighbors are the j > i
// of its (up to) 27 surrounding cells, in the cells' (dx, dy, dz) order
// and ascending within a cell, whose minimum-image distance squares to
// less than (cutoff+skin)². The package doc shows the shifted test exact.
func (nl *NeighborList) build(s *System, cutoff, skin float64, cl *cellList) error {
	rc := cutoff + skin
	if err := cl.bin(s, rc); err != nil {
		return err
	}
	rc2 := rc * rc
	nl.Cutoff = rc
	nl.Offsets = resize(nl.Offsets, s.N+1)
	neigh := nl.Neigh[:cap(nl.Neigh)]
	n := 0
	side, size, box := cl.side, cl.size, s.Box
	copy(cl.cursor, cl.start)
	var cells [27]neighborCell
	for i := 0; i < s.N; i++ {
		nl.Offsets[i] = int32(n)
		pi := s.Pos[i]
		ix, iy, iz := int(pi[0]/size), int(pi[1]/size), int(pi[2]/size)
		exactI := side < 4 || cl.offGrid(pi, ix, iy, iz)
		// The scan centres on the cell i is binned into, as cellOf folds it.
		wx, wy, wz := cl.wrap(ix), cl.wrap(iy), cl.wrap(iz)
		nCells := 0
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for dz := -1; dz <= 1; dz++ {
					cx, cy, cz := (wx+dx+side)%side, (wy+dy+side)%side, (wz+dz+side)%side
					id := (cx*side+cy)*side + cz
					// With fewer than 3 cells per edge, wrapped offsets
					// alias onto the same cell; scan each once.
					if side < 3 && slices.ContainsFunc(cells[:nCells], func(c neighborCell) bool { return c.id == id }) {
						continue
					}
					cells[nCells] = neighborCell{id, shift(ix+dx, side, box), shift(iy+dy, side, box), shift(iz+dz, side, box)}
					nCells++
				}
			}
		}
		xi, yi, zi := pi[0], pi[1], pi[2]
		for _, c := range cells[:nCells] {
			// Entries ascend and i only grows, so the cell's entries at or
			// below i stay behind its cursor.
			lo, hi := int(cl.cursor[c.id]), int(cl.start[c.id+1])
			for lo < hi && int(cl.index[lo]) <= i {
				lo++
			}
			cl.cursor[c.id] = int32(lo)
			if n+hi-lo > len(neigh) {
				neigh = slices.Grow(neigh[:n], hi-lo)
				neigh = neigh[:cap(neigh)]
			}
			idx, xs, ys, zs := cl.index[lo:hi], cl.x[lo:hi], cl.y[lo:hi], cl.z[lo:hi]
			if exactI || cl.exact[c.id] {
				for k, j := range idx {
					dx, dy, dz := s.image(xi-xs[k]), s.image(yi-ys[k]), s.image(zi-zs[k])
					neigh[n] = j
					n += b2i(dx*dx+dy*dy+dz*dz < rc2)
				}
				continue
			}
			xs, ys, zs = xs[:len(idx)], ys[:len(idx)], zs[:len(idx)]
			for k, j := range idx {
				dx, dy, dz := (xi-xs[k])+c.sx, (yi-ys[k])+c.sy, (zi-zs[k])+c.sz
				neigh[n] = j
				n += b2i(dx*dx+dy*dy+dz*dz < rc2)
			}
		}
	}
	nl.Offsets[s.N] = int32(n)
	nl.Neigh = neigh[:n]
	return nil
}

// shift returns the displacement shift that carries particles of the cell
// at unwrapped coordinate c, on one axis, next to a particle of cell c∓1:
// +box below the grid, -box above it, 0 inside.
func shift(c, side int, box float64) float64 {
	switch {
	case c < 0:
		return box
	case c >= side:
		return -box
	}
	return 0
}

// b2i returns 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// MaxDisplacement returns the largest displacement of any particle from the
// reference positions — the engine rebuilds the list when it exceeds half
// the skin.
func MaxDisplacement(s *System, ref []Vec3) float64 {
	var worst float64
	for i := 0; i < s.N && i < len(ref); i++ {
		d := s.minimumImage(s.Pos[i], ref[i]).Norm()
		if d > worst {
			worst = d
		}
	}
	return worst
}
