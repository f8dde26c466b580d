package md

import "fmt"

// This file keeps the previous neighbor search verbatim, renamed with a
// ref prefix. The differential tests hold BuildNeighborList to exactly its
// output.

// refCellList is the previous CellList.
type refCellList struct {
	Side  int // cells per box edge
	Cells [][]int
	size  float64
}

// refBuildCellList is the previous BuildCellList.
func refBuildCellList(s *System, cellSize float64) (*refCellList, error) {
	if cellSize <= 0 {
		return nil, fmt.Errorf("md: non-positive cell size %g", cellSize)
	}
	side := int(s.Box / cellSize)
	if side < 1 {
		side = 1
	}
	if side > 64 {
		side = 64
	}
	cl := &refCellList{Side: side, Cells: make([][]int, side*side*side), size: s.Box / float64(side)}
	for i := 0; i < s.N; i++ {
		c := cl.cellOf(s, s.Pos[i])
		cl.Cells[c] = append(cl.Cells[c], i)
	}
	return cl, nil
}

func (cl *refCellList) cellOf(s *System, p Vec3) int {
	ix := int(p[0]/cl.size) % cl.Side
	iy := int(p[1]/cl.size) % cl.Side
	iz := int(p[2]/cl.size) % cl.Side
	if ix < 0 {
		ix += cl.Side
	}
	if iy < 0 {
		iy += cl.Side
	}
	if iz < 0 {
		iz += cl.Side
	}
	return (ix*cl.Side+iy)*cl.Side + iz
}

// refMinimumImage is the previous minimumImage.
func (s *System) refMinimumImage(a, b Vec3) Vec3 {
	d := a.Sub(b)
	for k := 0; k < 3; k++ {
		if d[k] > s.Box/2 {
			d[k] -= s.Box
		} else if d[k] < -s.Box/2 {
			d[k] += s.Box
		}
	}
	return d
}

// refBuildNeighborList is the previous BuildNeighborList: the full
// minimum-image distance test on every candidate.
func refBuildNeighborList(s *System, cutoff, skin float64) (*NeighborList, error) {
	rc := cutoff + skin
	cl, err := refBuildCellList(s, rc)
	if err != nil {
		return nil, err
	}
	rc2 := rc * rc
	nl := &NeighborList{Offsets: make([]int32, s.N+1), Cutoff: rc}
	side := cl.Side
	var cells [27]int
	for i := 0; i < s.N; i++ {
		nl.Offsets[i] = int32(len(nl.Neigh))
		pi := s.Pos[i]
		ix := int(pi[0] / cl.size)
		iy := int(pi[1] / cl.size)
		iz := int(pi[2] / cl.size)
		// Collect the distinct neighbor cells: with fewer than 3 cells per
		// edge, wrapped offsets alias onto the same cell and a naive 27-way
		// scan would double-count pairs. With side >= 3 the 27 wrapped
		// offsets are provably distinct, so the quadratic duplicate scan is
		// skipped — the cells still fill in the same loop order, so the
		// neighbor list comes out identical.
		nCells := 0
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for dz := -1; dz <= 1; dz++ {
					cx, cy, cz := (ix+dx+side)%side, (iy+dy+side)%side, (iz+dz+side)%side
					id := (cx*side+cy)*side + cz
					if side >= 3 {
						cells[nCells] = id
						nCells++
						continue
					}
					dup := false
					for k := 0; k < nCells; k++ {
						if cells[k] == id {
							dup = true
							break
						}
					}
					if !dup {
						cells[nCells] = id
						nCells++
					}
				}
			}
		}
		for k := 0; k < nCells; k++ {
			for _, j := range cl.Cells[cells[k]] {
				if j <= i {
					continue
				}
				d := s.refMinimumImage(pi, s.Pos[j])
				if d.Dot(d) < rc2 {
					nl.Neigh = append(nl.Neigh, int32(j))
				}
			}
		}
	}
	nl.Offsets[s.N] = int32(len(nl.Neigh))
	return nl, nil
}
