package md

import "math"

// ForceStats counts the work one force evaluation actually performed; the
// engine turns these counts into kernel instruction mixes.
type ForceStats struct {
	PairsEvaluated   int // pairs inside the list cutoff that were examined
	PairsInteracting int // pairs inside the force cutoff
	CoulombPairs     int // pairs with both charges nonzero
	Energy           float64
}

// clearForces zeroes the force accumulators.
func clearForces(s *System) {
	for i := range s.Force {
		s.Force[i] = Vec3{}
	}
}

// ComputePairForces evaluates Lennard-Jones plus (optionally) real-space
// Ewald Coulomb forces over the neighbor list, accumulating into s.Force.
// Lorentz-Berthelot mixing combines per-type LJ parameters. ewaldAlpha <= 0
// disables electrostatics (the colloid path).
//
// Pairs are taken in list order. A first pass computes each pair's
// minimum-image displacement and keeps, in a block of pairBlockLen, the
// pairs inside the cutoff at a nonzero distance; the physics then runs
// over each full block, so the cutoff test never branches.
func ComputePairForces(s *System, nl *NeighborList, cutoff, ewaldAlpha float64) ForceStats {
	var st ForceStats
	rc2 := cutoff * cutoff
	nt := len(s.Types)
	mix := make([]ljMix, nt*nt)
	for a := range s.Types {
		for b := range s.Types {
			ta, tb := &s.Types[a], &s.Types[b]
			mix[a*nt+b] = ljMix{eps: math.Sqrt(ta.Epsilon * tb.Epsilon), sig: (ta.Sigma + tb.Sigma) / 2}
		}
	}
	boxBits, half := math.Float64bits(s.Box), s.Box/2
	var blk pairBlock
	for i := 0; i < s.N; i++ {
		pi := s.Pos[i]
		neigh := nl.NeighborsOf(i)
		st.PairsEvaluated += len(neigh)
		for _, j := range neigh {
			pj := &s.Pos[j]
			d := Vec3{imageBits(pi[0]-pj[0], boxBits, half), imageBits(pi[1]-pj[1], boxBits, half), imageBits(pi[2]-pj[2], boxBits, half)}
			r2 := d.Dot(d)
			k := blk.n & (pairBlockLen - 1)
			blk.i[k], blk.j[k], blk.d[k], blk.r2[k] = int32(i), j, d, r2
			// Keep the pair unless r2 >= rc2 or r2 == 0, as the one-pass
			// loop does; | keeps both tests free of a branch.
			blk.n += 1 - (b2i(r2 >= rc2) | b2i(r2 == 0))
			if blk.n == pairBlockLen {
				blk.forces(s, &st, mix, ewaldAlpha)
			}
		}
	}
	blk.forces(s, &st, mix, ewaldAlpha)
	return st
}

// ljMix holds the mixed LJ parameters of one ordered pair of types.
type ljMix struct{ eps, sig float64 }

// pairBlockLen is the capacity of a pairBlock, a power of two.
const pairBlockLen = 256

// pairBlock holds up to pairBlockLen interacting pairs, in list order,
// with their minimum-image displacement and squared distance.
type pairBlock struct {
	n    int
	i, j [pairBlockLen]int32
	d    [pairBlockLen]Vec3
	r2   [pairBlockLen]float64
}

// forces adds the forces and energies of b's pairs, in order, and empties
// b.
func (b *pairBlock) forces(s *System, st *ForceStats, mix []ljMix, ewaldAlpha float64) {
	nt := len(s.Types)
	st.PairsInteracting += b.n
	for k := 0; k < b.n; k++ {
		i, j := int(b.i[k]), int(b.j[k])
		r2 := b.r2[k]
		m := &mix[s.Type[i]*nt+s.Type[j]]
		eps, sig := m.eps, m.sig
		sr2 := sig * sig / r2
		sr6 := sr2 * sr2 * sr2
		sr12 := sr6 * sr6
		// F = 24 eps (2 sr12 - sr6) / r^2 * dvec. The magnitude is
		// capped so overlapping initial configurations equilibrate
		// instead of blowing up (standard soft-start practice).
		fmag := 24 * eps * (2*sr12 - sr6) / r2
		const fcap = 1e4
		if fmag > fcap {
			fmag = fcap
		} else if fmag < -fcap {
			fmag = -fcap
		}
		e := 4 * eps * (sr12 - sr6)
		if e > fcap {
			e = fcap
		}
		st.Energy += e

		if ewaldAlpha > 0 {
			qi, qj := s.Charge[i], s.Charge[j]
			if qi != 0 && qj != 0 {
				st.CoulombPairs++
				r := math.Sqrt(r2)
				ar := ewaldAlpha * r
				erfc := math.Erfc(ar)
				e := qi * qj / r * erfc
				st.Energy += e
				fmag += (e + qi*qj*2*ewaldAlpha/math.Sqrt(math.Pi)*math.Exp(-ar*ar)) / r2
			}
		}
		f := b.d[k].Scale(fmag)
		s.Force[i] = s.Force[i].Add(f)
		s.Force[j] = s.Force[j].Sub(f)
	}
	b.n = 0
}

// imageBits is image without a branch, for a box edge box >= 0 given by
// its bits boxBits, and half = box/2. It selects by their bits d or d
// minus box signed like d, so d's sign of zero survives; d - (-box) has
// the bits of d + box. It is written to stay within the inlining budget.
func imageBits(d float64, boxBits uint64, half float64) float64 {
	db := math.Float64bits(d)
	m := -uint64(b2i(math.Abs(d) > half))
	return math.Float64frombits(db&^m | math.Float64bits(d-math.Float64frombits(boxBits|db&(1<<63)))&m)
}

// BondedStats counts bonded-force work.
type BondedStats struct {
	Bonds, Angles int
	Energy        float64
}

// ComputeBondedForces evaluates harmonic bonds and angles.
func ComputeBondedForces(s *System) BondedStats {
	var st BondedStats
	for _, b := range s.Bonds {
		st.Bonds++
		d := s.minimumImage(s.Pos[b.I], s.Pos[b.J])
		r := d.Norm()
		if r == 0 {
			continue
		}
		dr := r - b.R0
		st.Energy += 0.5 * b.K * dr * dr
		f := d.Scale(-b.K * dr / r)
		s.Force[b.I] = s.Force[b.I].Add(f)
		s.Force[b.J] = s.Force[b.J].Sub(f)
	}
	for _, a := range s.Angles {
		st.Angles++
		// Harmonic angle via small-displacement force on the outer atoms.
		rij := s.minimumImage(s.Pos[a.I], s.Pos[a.J])
		rkj := s.minimumImage(s.Pos[a.K], s.Pos[a.J])
		ni, nk := rij.Norm(), rkj.Norm()
		if ni == 0 || nk == 0 {
			continue
		}
		cosT := rij.Dot(rkj) / (ni * nk)
		cosT = math.Max(-1, math.Min(1, cosT))
		theta := math.Acos(cosT)
		dT := theta - a.Theta0
		st.Energy += 0.5 * a.KTheta * dT * dT
		sinT := math.Sin(theta)
		if math.Abs(sinT) < 1e-8 {
			continue
		}
		c := -a.KTheta * dT / sinT
		fi := rkj.Scale(1 / (ni * nk)).Sub(rij.Scale(cosT / (ni * ni))).Scale(c)
		fk := rij.Scale(1 / (ni * nk)).Sub(rkj.Scale(cosT / (nk * nk))).Scale(c)
		s.Force[a.I] = s.Force[a.I].Add(fi)
		s.Force[a.K] = s.Force[a.K].Add(fk)
		s.Force[a.J] = s.Force[a.J].Sub(fi.Add(fk))
	}
	return st
}
