package md

import "math"

// This file keeps the previous pair-force loop verbatim, renamed with a
// ref prefix. TestPairForcesMatchReference holds ComputePairForces to its
// statistics and to every bit of its forces.

// refComputePairForces is the previous ComputePairForces: one pass over
// the list with a cutoff branch per pair.
func refComputePairForces(s *System, nl *NeighborList, cutoff, ewaldAlpha float64) ForceStats {
	var st ForceStats
	rc2 := cutoff * cutoff
	for i := 0; i < s.N; i++ {
		ti := &s.Types[s.Type[i]]
		qi := s.Charge[i]
		for _, j32 := range nl.NeighborsOf(i) {
			j := int(j32)
			st.PairsEvaluated++
			d := s.minimumImage(s.Pos[i], s.Pos[j])
			r2 := d.Dot(d)
			if r2 >= rc2 || r2 == 0 {
				continue
			}
			st.PairsInteracting++
			tj := &s.Types[s.Type[j]]
			eps := math.Sqrt(ti.Epsilon * tj.Epsilon)
			sig := (ti.Sigma + tj.Sigma) / 2
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
				qj := s.Charge[j]
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
			f := d.Scale(fmag)
			s.Force[i] = s.Force[i].Add(f)
			s.Force[j] = s.Force[j].Sub(f)
		}
	}
	return st
}
