// Package md implements the molecular-dynamics substrate behind the Cactus
// molecular-simulation workloads (GMS: a Gromacs-like NPT equilibration of a
// solvated protein; LMR: a LAMMPS-like solvated-protein run; LMC: a
// LAMMPS-like colloid run). The engine is a real MD code — cell lists,
// Verlet neighbor lists, Lennard-Jones and short-range Coulomb forces, a
// PME-style long-range pipeline with an actual 3-D FFT, leapfrog
// integration, constraints, thermostat and barostat — executed at reduced
// particle count. Every phase launches kernels on the device model with
// instruction and memory counts derived from the work actually performed,
// extrapolated to paper-scale systems by a documented replication factor.
//
// # Neighbor search
//
// BuildNeighborList builds exactly the list of a full minimum-image test:
// particle i's neighbors are the j > i of its 27 surrounding cells, cell
// by cell in (dx, dy, dz) order and ascending within a cell, for which
// image(xi-xj)² + image(yi-yj)² + image(zi-zj)², added in that order, is
// below rc², the squared list cutoff. The cells have edge e = Box/Side,
// where Side = int(Box/rc), so e >= rc to rounding. The search meets that
// contract without calling image:
//
//   - The cell list is a counting sort, so a cell's entries ascend, and a
//     per-cell cursor skips the j <= i: i only grows.
//   - With Side >= 4, a candidate from the neighbor cell at unwrapped
//     coordinate ix+dx, where ix = int(xi/e) is i's own cell unreduced,
//     gets the shift sx = -Box when ix+dx >= Side, +Box when ix+dx < 0
//     and 0 otherwise, and is tested as ((xi-xj)+sx)² + ... in the same
//     order. d + (-Box) has the bits of d - Box, and d + 0 differs from d
//     only by turning -0 into +0, which squares the same. So on an axis
//     where the shift is the one image picks, the two terms are equal.
//   - Where it is not, d+sx and image(d) differ by a nonzero multiple of
//     Box, so their magnitudes add to at least Box. Since i and the
//     shifted j lie in equal or adjacent cells, |d+sx| <= 2e, and
//     |image(d)| <= Box/2. Hence |d+sx| >= Box/2 and |image(d)| >=
//     Box - 2e, both at least 2e when Side >= 4, far above rc to
//     rounding: both squares are at least rc², and a rounded sum of
//     non-negative terms is at least each term, so both tests reject the
//     pair.
//   - With Side = 3 the bound is Box - 2e = e, which can lie within
//     rounding of rc, so those searches test with image. With Side < 3,
//     where wrapped offsets alias onto the same cell, the search scans
//     each distinct cell once, also with image.
//   - The argument needs every particle to lie in the cell its
//     coordinates name. A coordinate just below Box whose quotient x/e
//     rounds up to Side does not: the wrap bins it into cell 0, yet it
//     sits at Box, and its shift would be off by Box. Binning therefore
//     marks each cell that holds such an off-grid particle (or one with a
//     negative, NaN or out-of-box coordinate); the search tests those
//     cells' entries with image, and searches from an off-grid i with
//     image throughout. Without this fallback a seeded random test crowded
//     at the cell and box edges loses pairs in over a third of its
//     systems.
//
// # Pair forces
//
// ComputePairForces adds every interacting pair's force into both
// particles in list order, from the same operands, as a one-pass loop with
// a cutoff branch per pair would. It first takes each pair's minimum
// image branch-free (selecting d or d∓Box by their bits, so -0 survives)
// and compacts the pairs inside the cutoff, in order, into a fixed block;
// the Lennard-Jones and Ewald physics then run over the block alone. The
// mixed epsilon and sigma of each pair of types are computed once per
// call with the same expressions.
package md

import (
	"fmt"
	"math"
	"math/rand"
)

// Vec3 is a 3-component vector.
type Vec3 [3]float64

// Add returns v + o.
func (v Vec3) Add(o Vec3) Vec3 { return Vec3{v[0] + o[0], v[1] + o[1], v[2] + o[2]} }

// Sub returns v - o.
func (v Vec3) Sub(o Vec3) Vec3 { return Vec3{v[0] - o[0], v[1] - o[1], v[2] - o[2]} }

// Scale returns v * s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v[0] * s, v[1] * s, v[2] * s} }

// Dot returns the dot product.
func (v Vec3) Dot(o Vec3) float64 { return v[0]*o[0] + v[1]*o[1] + v[2]*o[2] }

// Norm returns the Euclidean length.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// LJParam holds Lennard-Jones parameters for one particle type.
type LJParam struct {
	Epsilon float64
	Sigma   float64
}

// Bond is a harmonic bond between two particles.
type Bond struct {
	I, J int
	R0   float64 // equilibrium length
	K    float64 // spring constant
}

// Angle is a harmonic angle I-J-K.
type Angle struct {
	I, J, K int
	Theta0  float64
	KTheta  float64
}

// System holds the particle state of one simulation.
type System struct {
	N      int
	Pos    []Vec3
	Vel    []Vec3
	Force  []Vec3
	Mass   []float64
	Charge []float64
	Type   []int
	Types  []LJParam
	Bonds  []Bond
	Angles []Angle
	Box    float64 // cubic periodic box edge
}

// minimumImage returns the periodic minimum-image displacement a-b.
func (s *System) minimumImage(a, b Vec3) Vec3 {
	d := a.Sub(b)
	for k := 0; k < 3; k++ {
		d[k] = s.image(d[k])
	}
	return d
}

// image wraps one axis of a displacement to its minimum image.
func (s *System) image(d float64) float64 {
	if d > s.Box/2 {
		return d - s.Box
	} else if d < -s.Box/2 {
		return d + s.Box
	}
	return d
}

// wrap folds a coordinate back into the box. It is robust to arbitrarily
// large (but finite) excursions; non-finite coordinates are clamped to the
// box center so a numerical blow-up surfaces as bad physics rather than a
// hang.
func (s *System) wrap(p Vec3) Vec3 {
	for k := 0; k < 3; k++ {
		v := p[k]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			p[k] = s.Box / 2
			continue
		}
		v = math.Mod(v, s.Box)
		if v < 0 {
			v += s.Box
		}
		if v >= s.Box { // guard against Mod returning exactly Box via rounding
			v = 0
		}
		p[k] = v
	}
	return p
}

// KineticEnergy returns the system's kinetic energy.
func (s *System) KineticEnergy() float64 {
	var ke float64
	for i := 0; i < s.N; i++ {
		ke += 0.5 * s.Mass[i] * s.Vel[i].Dot(s.Vel[i])
	}
	return ke
}

// Temperature returns the instantaneous kinetic temperature (k_B = 1 units).
func (s *System) Temperature() float64 {
	if s.N == 0 {
		return 0
	}
	dof := float64(3*s.N - 3)
	return 2 * s.KineticEnergy() / dof
}

// Momentum returns the total momentum (useful as a conservation check).
func (s *System) Momentum() Vec3 {
	var p Vec3
	for i := 0; i < s.N; i++ {
		p = p.Add(s.Vel[i].Scale(s.Mass[i]))
	}
	return p
}

// zeroMomentum removes center-of-mass drift.
func (s *System) zeroMomentum() {
	p := s.Momentum()
	var totalMass float64
	for _, m := range s.Mass {
		totalMass += m
	}
	if totalMass == 0 {
		return
	}
	drift := p.Scale(1 / totalMass)
	for i := range s.Vel {
		s.Vel[i] = s.Vel[i].Sub(drift)
	}
}

// initVelocities draws Maxwell-Boltzmann velocities at temperature T.
func (s *System) initVelocities(r *rand.Rand, T float64) {
	for i := 0; i < s.N; i++ {
		sd := math.Sqrt(T / s.Mass[i])
		s.Vel[i] = Vec3{r.NormFloat64() * sd, r.NormFloat64() * sd, r.NormFloat64() * sd}
	}
	s.zeroMomentum()
}

func newSystem(n int, box float64) *System {
	return &System{
		N:      n,
		Pos:    make([]Vec3, n),
		Vel:    make([]Vec3, n),
		Force:  make([]Vec3, n),
		Mass:   make([]float64, n),
		Charge: make([]float64, n),
		Type:   make([]int, n),
		Box:    box,
	}
}

// NewSolvatedProtein builds a compact bonded "protein" globule of nProtein
// particles (chain with bonds and angles, alternating partial charges)
// solvated by nSolvent neutral-ish particles on a perturbed lattice —
// the structure of the Gromacs T4-lysozyme and LAMMPS rhodopsin inputs.
func NewSolvatedProtein(nProtein, nSolvent int, seed int64) (*System, error) {
	if nProtein < 4 || nSolvent < 0 {
		return nil, fmt.Errorf("md: solvated protein needs >= 4 protein particles, got %d", nProtein)
	}
	n := nProtein + nSolvent
	// Density ~0.6 particles/sigma^3.
	box := math.Cbrt(float64(n) / 0.6)
	s := newSystem(n, box)
	s.Types = []LJParam{
		{Epsilon: 1.0, Sigma: 1.0},  // protein backbone
		{Epsilon: 0.65, Sigma: 0.9}, // solvent
	}
	r := rand.New(rand.NewSource(seed))

	// Protein: self-avoiding-ish random walk folded near the box center.
	center := Vec3{box / 2, box / 2, box / 2}
	cur := center
	for i := 0; i < nProtein; i++ {
		step := Vec3{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		nrm := step.Norm()
		if nrm == 0 {
			nrm = 1
		}
		cur = cur.Add(step.Scale(0.8 / nrm))
		// Soft restraint toward the center keeps the globule compact.
		cur = cur.Add(center.Sub(cur).Scale(0.05))
		s.Pos[i] = s.wrap(cur)
		s.Mass[i] = 1.0
		s.Type[i] = 0
		// Alternating partial charges drive the electrostatics path.
		if i%2 == 0 {
			s.Charge[i] = 0.4
		} else {
			s.Charge[i] = -0.4
		}
		if i > 0 {
			s.Bonds = append(s.Bonds, Bond{I: i - 1, J: i, R0: 0.8, K: 100})
		}
		if i > 1 {
			s.Angles = append(s.Angles, Angle{I: i - 2, J: i - 1, K: i, Theta0: 2.0, KTheta: 20})
		}
	}

	// Solvent: perturbed simple-cubic lattice filling the box.
	side := int(math.Ceil(math.Cbrt(float64(nSolvent))))
	if side == 0 {
		side = 1
	}
	spacing := box / float64(side)
	idx := nProtein
	for x := 0; x < side && idx < n; x++ {
		for y := 0; y < side && idx < n; y++ {
			for z := 0; z < side && idx < n; z++ {
				p := Vec3{
					(float64(x) + 0.5 + 0.2*r.NormFloat64()) * spacing,
					(float64(y) + 0.5 + 0.2*r.NormFloat64()) * spacing,
					(float64(z) + 0.5 + 0.2*r.NormFloat64()) * spacing,
				}
				s.Pos[idx] = s.wrap(p)
				s.Mass[idx] = 0.8
				s.Type[idx] = 1
				// Small alternating charges so PME has solvent work too.
				if idx%2 == 0 {
					s.Charge[idx] = 0.1
				} else {
					s.Charge[idx] = -0.1
				}
				idx++
			}
		}
	}
	s.initVelocities(r, 1.0)
	return s, nil
}

// NewColloid builds a binary colloid system: nLarge big particles suspended
// in nSmall solvent particles (the LAMMPS colloid input). No bonds, no
// charges — the electrostatics kernels never fire, which is exactly the
// input sensitivity the paper observes between LMR and LMC.
func NewColloid(nLarge, nSmall int, seed int64) (*System, error) {
	if nLarge < 1 || nSmall < 0 {
		return nil, fmt.Errorf("md: colloid needs >= 1 large particle, got %d", nLarge)
	}
	n := nLarge + nSmall
	box := math.Cbrt(float64(nLarge)*20 + float64(nSmall)/0.5)
	s := newSystem(n, box)
	s.Types = []LJParam{
		{Epsilon: 1.5, Sigma: 2.5}, // colloid particle
		{Epsilon: 1.0, Sigma: 1.0}, // solvent
	}
	r := rand.New(rand.NewSource(seed))
	// Large particles on a sparse lattice so they do not overlap.
	sideL := int(math.Ceil(math.Cbrt(float64(nLarge))))
	spacingL := box / float64(sideL)
	idx := 0
	for x := 0; x < sideL && idx < nLarge; x++ {
		for y := 0; y < sideL && idx < nLarge; y++ {
			for z := 0; z < sideL && idx < nLarge; z++ {
				s.Pos[idx] = Vec3{(float64(x) + 0.5) * spacingL, (float64(y) + 0.5) * spacingL, (float64(z) + 0.5) * spacingL}
				s.Mass[idx] = 10
				s.Type[idx] = 0
				idx++
			}
		}
	}
	// Solvent fills remaining space randomly, rejecting colloid overlap.
	for ; idx < n; idx++ {
		for try := 0; ; try++ {
			p := Vec3{r.Float64() * box, r.Float64() * box, r.Float64() * box}
			ok := true
			for j := 0; j < nLarge; j++ {
				if s.minimumImage(p, s.Pos[j]).Norm() < 1.8 {
					ok = false
					break
				}
			}
			if ok || try > 50 {
				s.Pos[idx] = p
				break
			}
		}
		s.Mass[idx] = 1
		s.Type[idx] = 1
	}
	s.initVelocities(r, 1.0)
	return s, nil
}
