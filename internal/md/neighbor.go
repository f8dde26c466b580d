package md

import "fmt"

// CellList bins particles into cubic cells of at least the cutoff length so
// neighbor search only scans the 27 surrounding cells.
type CellList struct {
	Side  int // cells per box edge
	Cells [][]int
	size  float64
}

// BuildCellList bins all particles of s into cells of edge >= cellSize.
func BuildCellList(s *System, cellSize float64) (*CellList, error) {
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
	cl := &CellList{Side: side, Cells: make([][]int, side*side*side), size: s.Box / float64(side)}
	for i := 0; i < s.N; i++ {
		c := cl.cellOf(s, s.Pos[i])
		cl.Cells[c] = append(cl.Cells[c], i)
	}
	return cl, nil
}

func (cl *CellList) cellOf(s *System, p Vec3) int {
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

// BuildNeighborList builds a Verlet half-list with the given cutoff+skin
// radius using a cell list.
func BuildNeighborList(s *System, cutoff, skin float64) (*NeighborList, error) {
	rc := cutoff + skin
	cl, err := BuildCellList(s, rc)
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
		// Most candidates lie beyond the cutoff along x or y alone. A
		// rounded sum of non-negative squares is at least each of its
		// terms, so a pair with dx² or dy² >= rc² fails the full test too,
		// and skipping it early leaves the list unchanged.
		for k := 0; k < nCells; k++ {
			for _, j := range cl.Cells[cells[k]] {
				if j <= i {
					continue
				}
				pj := &s.Pos[j]
				dx := s.image(pi[0] - pj[0])
				if dx*dx >= rc2 {
					continue
				}
				dy := s.image(pi[1] - pj[1])
				if dy*dy >= rc2 {
					continue
				}
				d := Vec3{dx, dy, s.image(pi[2] - pj[2])}
				if d.Dot(d) < rc2 {
					nl.Neigh = append(nl.Neigh, int32(j))
				}
			}
		}
	}
	nl.Offsets[s.N] = int32(len(nl.Neigh))
	return nl, nil
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
