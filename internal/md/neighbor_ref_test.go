package md

// This file keeps the previous neighbor search verbatim, renamed with a
// ref prefix. The differential tests hold BuildNeighborList to exactly its
// output.

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
