package md

import (
	"fmt"

	"repro/internal/profiler"
	"repro/internal/workloads"
)

// Workload is one configured molecular-simulation benchmark.
type Workload struct {
	name, abbr string
	build      func() (*System, error)
	cfg        Config
}

var _ workloads.Workload = (*Workload)(nil)

// Name returns the full workload name.
func (w *Workload) Name() string { return w.name }

// Abbr returns the paper's abbreviation.
func (w *Workload) Abbr() string { return w.abbr }

// Suite returns Cactus.
func (w *Workload) Suite() workloads.Suite { return workloads.Cactus }

// Domain returns the molecular-simulation domain.
func (w *Workload) Domain() workloads.Domain { return workloads.Molecular }

// Run builds the particle system and executes the engine against s.
func (w *Workload) Run(s *profiler.Session) error {
	sys, err := w.build()
	if err != nil {
		return fmt.Errorf("md: %s: %w", w.abbr, err)
	}
	eng, err := NewEngine(w.cfg, sys, s)
	if err != nil {
		return fmt.Errorf("md: %s: %w", w.abbr, err)
	}
	if err := eng.Run(); err != nil {
		return fmt.Errorf("md: %s: %w", w.abbr, err)
	}
	return nil
}

// Gromacs returns GMS: the Gromacs-like NPT equilibration of a solvated
// T4-lysozyme-scale protein (paper: 5,000 NPT steps; here: a reduced tile
// extrapolated by the replication factor).
func Gromacs() *Workload {
	return &Workload{
		name: "Gromacs NPT equilibration (T4 lysozyme)",
		abbr: "GMS",
		build: func() (*System, error) {
			return NewSolvatedProtein(240, 1100, 101)
		},
		cfg: Config{
			Flavor:        GromacsFlavor,
			Steps:         40,
			Cutoff:        2.6,
			Skin:          0.4,
			EwaldAlpha:    0.9,
			PMEGrid:       16,
			NPT:           true,
			Replication:   60, // launch-overhead-realistic extrapolation (~80k particles)
			RebuildEvery:  20,
			PairCostScale: 5.0, // nbnxn 4x8 cluster padding + pruning work
		},
	}
}

// LammpsRhodopsin returns LMR: the LAMMPS-like solvated-protein (rhodopsin)
// run with full electrostatics (paper: 32 K atoms, 3,000 steps).
func LammpsRhodopsin() *Workload {
	return &Workload{
		name: "LAMMPS protein simulation (rhodopsin)",
		abbr: "LMR",
		build: func() (*System, error) {
			return NewSolvatedProtein(320, 1300, 202)
		},
		cfg: Config{
			Flavor:        LammpsFlavor,
			Steps:         36,
			Cutoff:        2.6,
			Skin:          0.4,
			EwaldAlpha:    0.9,
			PMEGrid:       16,
			Replication:   60, // launch-overhead-realistic extrapolation (~95k particles)
			RebuildEvery:  8,
			PairCostScale: 3.0, // CHARMM switching + exclusion work
		},
	}
}

// LammpsColloid returns LMC: the LAMMPS-like colloid run — pairwise
// interactions between particles, no electrostatics (paper: 60 K atoms,
// 2,000 steps).
func LammpsColloid() *Workload {
	return &Workload{
		name: "LAMMPS pairwise colloid interactions",
		abbr: "LMC",
		build: func() (*System, error) {
			return NewColloid(60, 1440, 303)
		},
		cfg: Config{
			Flavor:       LammpsFlavor,
			Steps:        32,
			Cutoff:       3.0,
			Skin:         0.5,
			EwaldAlpha:   0, // triggers the colloid kernel split
			PMEGrid:      0,
			Replication:  80, // launch-overhead-realistic extrapolation (~120k particles)
			RebuildEvery: 8,
		},
	}
}
