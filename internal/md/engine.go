package md

import (
	"fmt"
	"math"

	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/memsim"
	"repro/internal/profiler"
)

// Flavor selects the kernel decomposition style of the host MD package.
type Flavor uint8

const (
	// GromacsFlavor uses the nbnxn/PME kernel split of Gromacs' CUDA build.
	GromacsFlavor Flavor = iota
	// LammpsFlavor uses the pair/neigh/pppm/fix kernel split of the LAMMPS
	// GPU package.
	LammpsFlavor
)

// dt is the integration time step and targetT the thermostat set point,
// the same for every run.
const (
	dt      = 0.002
	targetT = 1.0
)

// Config parameterizes one MD run.
type Config struct {
	Flavor Flavor
	Steps  int
	Cutoff float64
	Skin   float64
	// EwaldAlpha enables electrostatics (real-space erfc + PME) when > 0.
	EwaldAlpha float64
	// PMEGrid is the PME grid edge (power of two); 0 disables PME.
	PMEGrid int
	// NPT enables the barostat (the Gromacs NPT-equilibration workload).
	NPT bool
	// Replication extrapolates the reduced simulation to paper scale: every
	// kernel's instruction mix and memory streams are scaled by this factor
	// (the simulated system is treated as a sampled tile of the full one).
	Replication float64
	// RebuildEvery rebuilds the neighbor list every k steps at most; it also
	// rebuilds when displacement exceeds half the skin.
	RebuildEvery int
	// PairCostScale calibrates the per-pair instruction cost of the
	// nonbonded kernel relative to the plain LJ+Ewald count: Gromacs'
	// nbnxn kernels pad 4x8 clusters (extra evaluated pairs), LAMMPS'
	// CHARMM style adds switching-function and exclusion work. Zero
	// defaults to 1.
	PairCostScale float64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Steps <= 0:
		return fmt.Errorf("md: steps %d", c.Steps)
	case c.Cutoff <= 0:
		return fmt.Errorf("md: cutoff %g", c.Cutoff)
	case c.Skin < 0:
		return fmt.Errorf("md: negative skin")
	case c.Replication < 1:
		return fmt.Errorf("md: replication %g < 1", c.Replication)
	case c.RebuildEvery <= 0:
		return fmt.Errorf("md: rebuild interval %d", c.RebuildEvery)
	}
	return nil
}

// Engine couples a System to a profiling session and runs the simulation,
// launching one kernel per phase per step with counts taken from the work
// the phase actually did.
type Engine struct {
	cfg  Config
	sys  *System
	sess *profiler.Session
	pme  *PME
	ref  []Vec3
	// nl and cells keep their buffers from one rebuild to the next.
	nl    NeighborList
	cells cellList

	// LastEnergy is the most recent total potential energy (diagnostics).
	LastEnergy float64
	// Rebuilds counts neighbor-list rebuilds.
	Rebuilds int
}

// NewEngine builds an engine.
func NewEngine(cfg Config, sys *System, sess *profiler.Session) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, sys: sys, sess: sess}
	if cfg.PMEGrid > 0 && cfg.EwaldAlpha > 0 {
		p, err := NewPME(cfg.PMEGrid, cfg.EwaldAlpha)
		if err != nil {
			return nil, err
		}
		e.pme = p
	}
	return e, nil
}

// Run executes all configured steps.
func (e *Engine) Run() error {
	for step := 0; step < e.cfg.Steps; step++ {
		if err := e.Step(step); err != nil {
			return fmt.Errorf("md: step %d: %w", step, err)
		}
	}
	return nil
}

// launch assembles and issues one kernel.
func (e *Engine) launch(name string, threads int, mix isa.Mix, streams []memsim.Stream, div float64) {
	e.sess.MustLaunch(gpu.Replicated(name, threads, 128, e.cfg.Replication, mix, streams, div))
}

const f4 = 16 // bytes of a float4 (position / force record)

// Step advances the simulation one step, launching every phase's kernel.
func (e *Engine) Step(step int) error {
	s := e.sys
	cfg := e.cfg
	n := float64(s.N)

	// --- Neighbor list maintenance ---------------------------------------
	needRebuild := e.Rebuilds == 0 || step%cfg.RebuildEvery == 0
	if !needRebuild && MaxDisplacement(s, e.ref) > cfg.Skin/2 {
		needRebuild = true
	}
	if needRebuild {
		nl := &e.nl
		if err := nl.build(s, cfg.Cutoff, cfg.Skin, &e.cells); err != nil {
			return err
		}
		e.ref = append(e.ref[:0], s.Pos...)
		e.Rebuilds++
		pairs := float64(nl.Pairs())
		binMix, buildMix := isa.Mix{}, isa.Mix{}
		binMix.Add(isa.INT, isa.Warps(n*12))
		binMix.Add(isa.LoadGlobal, isa.Warps(n*2))
		binMix.Add(isa.StoreGlobal, isa.Warps(n))
		binMix.Add(isa.Misc, isa.Warps(n*2))
		buildMix.Add(isa.FP32, isa.Warps(pairs*8))
		buildMix.Add(isa.INT, isa.Warps(pairs*6))
		buildMix.Add(isa.LoadGlobal, isa.Warps(pairs*1.5))
		buildMix.Add(isa.StoreGlobal, isa.Warps(pairs/2))
		buildMix.Add(isa.Branch, isa.Warps(pairs))
		buildMix.Add(isa.Misc, isa.Warps(pairs))
		posBytes := uint64(s.N * f4)
		listBytes := uint64(nl.Pairs() * 4)
		binStreams := []memsim.Stream{
			{Name: "pos", FootprintBytes: posBytes, AccessBytes: posBytes, ElemBytes: 16, Pattern: memsim.Coalesced, Partitioned: true},
			{Name: "bins", FootprintBytes: uint64(s.N * 4), AccessBytes: uint64(s.N * 4), ElemBytes: 4, Pattern: memsim.Coalesced, Store: true, Partitioned: true},
		}
		buildStreams := []memsim.Stream{
			{Name: "pos-gather", FootprintBytes: posBytes, AccessBytes: uint64(float64(nl.Pairs()) * 4 * 4), ElemBytes: 16, Pattern: memsim.Random, Partitioned: true},
			{Name: "list-out", FootprintBytes: listBytes, AccessBytes: listBytes, ElemBytes: 4, Pattern: memsim.Coalesced, Store: true, Partitioned: true},
		}
		switch cfg.Flavor {
		case GromacsFlavor:
			// Gromacs folds binning + list construction into one pairlist
			// pass on the GPU.
			buildMix.AddMix(binMix)
			e.launch("nbnxn_pairlist_build", s.N, buildMix, append(binStreams, buildStreams...), 0.2)
		case LammpsFlavor:
			e.launch("neigh_bin_atoms", s.N, binMix, binStreams, 0.05)
			e.launch("neigh_build_list", s.N, buildMix, buildStreams, 0.25)
		}
	}

	// --- Pair forces ------------------------------------------------------
	clearForces(s)
	st := ComputePairForces(s, &e.nl, cfg.Cutoff, cfg.EwaldAlpha)
	e.LastEnergy = st.Energy
	e.emitPairKernels(st)

	// --- PME long range ---------------------------------------------------
	if e.pme != nil {
		if err := e.emitPME(); err != nil {
			return err
		}
	}

	// --- Bonded forces ------------------------------------------------------
	if len(s.Bonds) > 0 {
		bst := ComputeBondedForces(s)
		e.emitBonded(bst)
	}

	// --- Integration, thermostat/barostat, constraints ---------------------
	Leapfrog(s, dt)
	BerendsenThermostat(s, targetT, 0.1)
	virial := -st.Energy // crude virial proxy; adequate for the barostat path
	if cfg.NPT {
		BerendsenBarostat(s, 1.0, virial, 0.05)
	}
	iters := 0
	if len(s.Bonds) > 0 {
		iters = ApplyConstraints(s, 1e-3, 8)
	}
	e.emitUpdate(iters)

	return nil
}

func (e *Engine) emitPairKernels(st ForceStats) {
	s := e.sys
	posBytes := uint64(s.N * f4)
	listBytes := uint64(e.nl.Pairs() * 4)
	pe, pi, pc := float64(st.PairsEvaluated), float64(st.PairsInteracting), float64(st.CoulombPairs)
	div := 0.0
	if st.PairsEvaluated > 0 {
		div = 0.5 * (1 - pi/pe) // lanes idle on cutoff-rejected pairs
	}

	cost := e.cfg.PairCostScale
	if cost <= 0 {
		cost = 1
	}
	mkMix := func(pairsEval, pairsLJ, pairsCoul float64) isa.Mix {
		pairsEval *= cost
		pairsLJ *= cost
		pairsCoul *= cost
		var m isa.Mix
		m.Add(isa.FP32, isa.Warps(pairsEval*14+pairsLJ*22+pairsCoul*20))
		m.Add(isa.SFU, isa.Warps(pairsCoul*3+pairsLJ/4))
		m.Add(isa.INT, isa.Warps(pairsEval*5))
		m.Add(isa.LoadGlobal, isa.Warps(pairsEval*1.2))
		m.Add(isa.StoreGlobal, isa.Warps(float64(s.N)*2))
		m.Add(isa.Branch, isa.Warps(pairsEval*1.5))
		m.Add(isa.Misc, isa.Warps(pairsEval))
		return m
	}

	switch e.cfg.Flavor {
	case GromacsFlavor:
		// Gromacs' cluster-based nbnxn kernel: positions are reloaded per
		// cluster with high L1 reuse; the pair list is compressed 8:1.
		streams := []memsim.Stream{
			{Name: "pairlist", FootprintBytes: listBytes / 8, AccessBytes: listBytes / 8, ElemBytes: 4, Pattern: memsim.Coalesced, Partitioned: true},
			{Name: "pos-gather", FootprintBytes: posBytes, AccessBytes: uint64(pe * 4), ElemBytes: 16, Pattern: memsim.Random, Partitioned: true},
			{Name: "force-out", FootprintBytes: posBytes, AccessBytes: posBytes * 2, ElemBytes: 16, Pattern: memsim.Coalesced, Store: true, Partitioned: true},
		}
		e.launch("nbnxn_kernel_ElecEwald_VdwLJ_F", s.N*8, mkMix(pe, pi, pc), streams, div*0.5)
	case LammpsFlavor:
		// LAMMPS GPU pair styles use full neighbor lists (every pair stored
		// and evaluated from both atoms) and stream the list from global
		// memory every step — twice the pair work and the memory-heavy
		// character of its pair kernels.
		pe, pi, pc = pe*2, pi*2, pc*2
		listBytes *= 2
		mkStreams := func(pairsEval float64, list uint64) []memsim.Stream {
			return []memsim.Stream{
				{Name: "neighlist", FootprintBytes: list, AccessBytes: list, ElemBytes: 4, Pattern: memsim.Coalesced, Partitioned: true},
				{Name: "pos-gather", FootprintBytes: posBytes, AccessBytes: uint64(pairsEval * f4), ElemBytes: 16, Pattern: memsim.Random, Partitioned: true},
				{Name: "force-out", FootprintBytes: posBytes, AccessBytes: posBytes * 2, ElemBytes: 16, Pattern: memsim.Coalesced, Store: true, Partitioned: true},
			}
		}
		if e.cfg.EwaldAlpha > 0 {
			e.launch("pair_lj_charmm_coul_long", s.N, mkMix(pe, pi, pc), mkStreams(pe, listBytes), div)
		} else {
			// Colloid input: split by pair class, mirroring a LAMMPS hybrid
			// pair style (colloid + lj/cut). The split is derived from the
			// actual type composition of the evaluated pairs.
			largeFrac := e.largePairFraction()
			peL, peS := pe*largeFrac, pe*(1-largeFrac)
			piL, piS := pi*largeFrac, pi*(1-largeFrac)
			// The colloid pair style evaluates an analytic Hamaker
			// integration per pair — roughly an order of magnitude more
			// arithmetic than plain LJ, making this kernel the
			// compute-intensive member of LMC's dominant set.
			e.launch("pair_colloid", s.N, mkMix(peL*2, piL*10, 0), mkStreams(peL, uint64(float64(listBytes)*largeFrac)), div)
			e.launch("pair_lj_cut_solvent", s.N, mkMix(peS, piS, 0), mkStreams(peS, uint64(float64(listBytes)*(1-largeFrac))), div)
		}
	}
}

// largePairFraction estimates the fraction of neighbor pairs involving a
// type-0 (colloid) particle from the current list.
func (e *Engine) largePairFraction() float64 {
	s := e.sys
	total, large := 0, 0
	for i := 0; i < s.N; i++ {
		for _, j := range e.nl.NeighborsOf(i) {
			total++
			if s.Type[i] == 0 || s.Type[int(j)] == 0 {
				large++
			}
		}
	}
	if total == 0 {
		return 0
	}
	frac := float64(large) / float64(total)
	if frac < 0.05 {
		frac = 0.05 // the colloid kernel still launches
	}
	return frac
}

func (e *Engine) emitPME() error {
	s := e.sys
	g := e.pme.GridN
	gridCells := float64(g * g * g)
	gridBytes := uint64(gridCells * 16)

	updates := float64(e.pme.Spread(s))
	var spreadMix isa.Mix
	spreadMix.Add(isa.FP32, isa.Warps(updates*6))
	spreadMix.Add(isa.INT, isa.Warps(updates*3))
	spreadMix.Add(isa.StoreGlobal, isa.Warps(updates))
	spreadMix.Add(isa.LoadGlobal, isa.Warps(float64(s.N)))
	spreadMix.Add(isa.Misc, isa.Warps(updates))
	names := e.kernelNames()
	e.launch(names.spread, s.N, spreadMix, []memsim.Stream{
		{Name: "grid-scatter", FootprintBytes: gridBytes, AccessBytes: uint64(updates * 8), ElemBytes: 8, Pattern: memsim.Random, Store: true, Partitioned: true},
		{Name: "pos", FootprintBytes: uint64(s.N * f4), AccessBytes: uint64(s.N * f4), ElemBytes: 16, Pattern: memsim.Coalesced, Partitioned: true},
	}, 0.1)

	// Forward FFT, solve, inverse FFT are performed for real; instruction
	// counts follow the radix-2 butterfly count actually executed:
	// 3 axes x n^2 lines x (n/2) log2(n) butterflies.
	butterflies := 3 * gridCells / 2 * math.Log2(float64(g))
	fftMix := func() isa.Mix {
		var m isa.Mix
		m.Add(isa.FP32, isa.Warps(butterflies*10))
		m.Add(isa.INT, isa.Warps(butterflies*4))
		m.Add(isa.LoadShared, isa.Warps(butterflies*2))
		m.Add(isa.StoreShared, isa.Warps(butterflies*2))
		m.Add(isa.LoadGlobal, isa.Warps(gridCells*3))
		m.Add(isa.StoreGlobal, isa.Warps(gridCells*3))
		m.Add(isa.Sync, isa.Warps(gridCells/4))
		m.Add(isa.Misc, isa.Warps(butterflies))
		return m
	}
	fftStreams := func() []memsim.Stream {
		return []memsim.Stream{
			{Name: "grid-in", FootprintBytes: gridBytes, AccessBytes: gridBytes * 3, ElemBytes: 16, Pattern: memsim.Coalesced, Partitioned: true},
			{Name: "grid-out", FootprintBytes: gridBytes, AccessBytes: gridBytes * 3, ElemBytes: 16, Pattern: memsim.Coalesced, Store: true, Partitioned: true},
		}
	}

	e.launch(names.fftFwd, g*g, fftMix(), fftStreams(), 0)
	energy, err := e.pme.Solve(s.Box)
	if err != nil {
		return err
	}
	e.LastEnergy += energy
	var solveMix isa.Mix
	solveMix.Add(isa.FP32, isa.Warps(gridCells*9))
	solveMix.Add(isa.SFU, isa.Warps(gridCells)) // exp()
	solveMix.Add(isa.INT, isa.Warps(gridCells*3))
	solveMix.Add(isa.LoadGlobal, isa.Warps(gridCells))
	solveMix.Add(isa.StoreGlobal, isa.Warps(gridCells))
	solveMix.Add(isa.Misc, isa.Warps(gridCells))
	e.launch(names.solve, g*g, solveMix, []memsim.Stream{
		{Name: "grid", FootprintBytes: gridBytes, AccessBytes: gridBytes * 2, ElemBytes: 16, Pattern: memsim.Coalesced, Partitioned: true},
	}, 0)
	e.launch(names.fftInv, g*g, fftMix(), fftStreams(), 0)

	reads := float64(e.pme.Gather(s))
	var gatherMix isa.Mix
	gatherMix.Add(isa.FP32, isa.Warps(reads*4))
	gatherMix.Add(isa.INT, isa.Warps(reads*2))
	gatherMix.Add(isa.LoadGlobal, isa.Warps(reads))
	gatherMix.Add(isa.StoreGlobal, isa.Warps(float64(s.N)))
	gatherMix.Add(isa.Misc, isa.Warps(reads))
	e.launch(names.gather, s.N, gatherMix, []memsim.Stream{
		{Name: "grid-gather", FootprintBytes: gridBytes, AccessBytes: uint64(reads * 8), ElemBytes: 8, Pattern: memsim.Random, Partitioned: true},
		{Name: "force-out", FootprintBytes: uint64(s.N * f4), AccessBytes: uint64(s.N * f4), ElemBytes: 16, Pattern: memsim.Coalesced, Store: true, Partitioned: true},
	}, 0.1)
	return nil
}

func (e *Engine) emitBonded(bst BondedStats) {
	s := e.sys
	work := float64(bst.Bonds)*30 + float64(bst.Angles)*70
	elems := float64(bst.Bonds + bst.Angles)
	names := e.kernelNames()
	switch e.cfg.Flavor {
	case GromacsFlavor:
		var m isa.Mix
		m.Add(isa.FP32, isa.Warps(work))
		m.Add(isa.SFU, isa.Warps(float64(bst.Angles)*2))
		m.Add(isa.INT, isa.Warps(elems*4))
		m.Add(isa.LoadGlobal, isa.Warps(elems*4))
		m.Add(isa.StoreGlobal, isa.Warps(elems*3))
		m.Add(isa.Branch, isa.Warps(elems))
		m.Add(isa.Misc, isa.Warps(elems))
		e.launch(names.bonded, int(elems), m, e.bondedStreams(elems), 0.15)
	case LammpsFlavor:
		// LAMMPS launches one kernel per bonded style.
		emit := func(name string, count, instPer float64, sfu bool) {
			if count == 0 {
				return
			}
			var m isa.Mix
			m.Add(isa.FP32, isa.Warps(count*instPer))
			if sfu {
				m.Add(isa.SFU, isa.Warps(count*2))
			}
			m.Add(isa.INT, isa.Warps(count*4))
			m.Add(isa.LoadGlobal, isa.Warps(count*4))
			m.Add(isa.StoreGlobal, isa.Warps(count*3))
			m.Add(isa.Misc, isa.Warps(count))
			e.launch(name, int(count), m, e.bondedStreams(count), 0.1)
		}
		emit("bond_harmonic", float64(bst.Bonds), 30, false)
		emit("angle_harmonic", float64(bst.Angles), 70, true)
		// Dihedral proxy: 1-4 restraints along the chain (see workload
		// construction) are folded into the angle count at build time; the
		// CHARMM input additionally runs a dihedral kernel over ~the same
		// number of terms as angles.
		emit("dihedral_charmm", float64(bst.Angles), 90, true)
	}
	_ = s
}

func (e *Engine) bondedStreams(elems float64) []memsim.Stream {
	s := e.sys
	posBytes := uint64(s.N * f4)
	idxBytes := uint64(elems * 16)
	if idxBytes == 0 {
		idxBytes = 16
	}
	return []memsim.Stream{
		{Name: "topology", FootprintBytes: idxBytes, AccessBytes: idxBytes, ElemBytes: 4, Pattern: memsim.Coalesced, Partitioned: true},
		{Name: "pos-gather", FootprintBytes: posBytes, AccessBytes: uint64(elems * 3 * f4), ElemBytes: 16, Pattern: memsim.Random, Partitioned: true},
		{Name: "force-out", FootprintBytes: posBytes, AccessBytes: uint64(elems * 3 * f4), ElemBytes: 16, Pattern: memsim.Random, Store: true, Partitioned: true},
	}
}

// emitUpdate launches the integration/thermostat (and constraint) kernels.
func (e *Engine) emitUpdate(constraintIters int) {
	s := e.sys
	n := float64(s.N)
	posBytes := uint64(s.N * f4)
	names := e.kernelNames()

	var upd isa.Mix
	upd.Add(isa.FP32, isa.Warps(n*14))
	upd.Add(isa.INT, isa.Warps(n*4))
	upd.Add(isa.LoadGlobal, isa.Warps(n*3))
	upd.Add(isa.StoreGlobal, isa.Warps(n*2))
	upd.Add(isa.Misc, isa.Warps(n*2))
	// Constraint iterations fold into the Gromacs update_constraints kernel.
	if e.cfg.Flavor == GromacsFlavor && constraintIters > 0 {
		cwork := float64(constraintIters * len(s.Bonds))
		upd.Add(isa.FP32, isa.Warps(cwork*20))
		upd.Add(isa.LoadGlobal, isa.Warps(cwork*2))
		upd.Add(isa.Sync, isa.Warps(n/8))
	}
	streams := []memsim.Stream{
		{Name: "pos", FootprintBytes: posBytes, AccessBytes: posBytes * 2, ElemBytes: 16, Pattern: memsim.Coalesced, Partitioned: true},
		{Name: "vel", FootprintBytes: posBytes, AccessBytes: posBytes * 2, ElemBytes: 16, Pattern: memsim.Coalesced, Partitioned: true},
		{Name: "force", FootprintBytes: posBytes, AccessBytes: posBytes, ElemBytes: 16, Pattern: memsim.Coalesced, Partitioned: true},
		{Name: "pos-out", FootprintBytes: posBytes, AccessBytes: posBytes, ElemBytes: 16, Pattern: memsim.Coalesced, Store: true, Partitioned: true},
	}
	e.launch(names.update, s.N, upd, streams, 0)

	if e.cfg.Flavor == LammpsFlavor {
		// Thermostat, halo exchange pack/unpack, and the per-step
		// energy/virial reduction are separate LAMMPS kernels.
		var th isa.Mix
		th.Add(isa.FP32, isa.Warps(n*6))
		th.Add(isa.LoadGlobal, isa.Warps(n))
		th.Add(isa.StoreGlobal, isa.Warps(n))
		th.Add(isa.Misc, isa.Warps(n))
		thName := "temp_berendsen"
		if e.cfg.EwaldAlpha == 0 {
			thName = "temp_rescale"
		}
		e.launch(thName, s.N, th, []memsim.Stream{
			{Name: "vel", FootprintBytes: posBytes, AccessBytes: posBytes * 2, ElemBytes: 16, Pattern: memsim.Coalesced, Partitioned: true},
		}, 0)

		halo := n * 0.3 // boundary fraction exchanged each step
		var pack isa.Mix
		pack.Add(isa.INT, isa.Warps(halo*4))
		pack.Add(isa.LoadGlobal, isa.Warps(halo*2))
		pack.Add(isa.StoreGlobal, isa.Warps(halo*2))
		pack.Add(isa.Misc, isa.Warps(halo))
		haloBytes := uint64(halo * f4)
		e.launch("comm_pack_forward", int(halo), pack, []memsim.Stream{
			{Name: "halo-gather", FootprintBytes: posBytes, AccessBytes: haloBytes, ElemBytes: 16, Pattern: memsim.Random, Partitioned: true},
			{Name: "buf-out", FootprintBytes: haloBytes, AccessBytes: haloBytes, ElemBytes: 16, Pattern: memsim.Coalesced, Store: true, Partitioned: true},
		}, 0.1)
		if e.cfg.EwaldAlpha == 0 {
			e.launch("comm_unpack", int(halo), pack, []memsim.Stream{
				{Name: "buf-in", FootprintBytes: haloBytes, AccessBytes: haloBytes, ElemBytes: 16, Pattern: memsim.Coalesced, Partitioned: true},
				{Name: "halo-scatter", FootprintBytes: posBytes, AccessBytes: haloBytes, ElemBytes: 16, Pattern: memsim.Random, Store: true, Partitioned: true},
			}, 0.1)
		}

		var red isa.Mix
		red.Add(isa.FP32, isa.Warps(n*3))
		red.Add(isa.LoadGlobal, isa.Warps(n))
		red.Add(isa.LoadShared, isa.Warps(n/2))
		red.Add(isa.StoreShared, isa.Warps(n/2))
		red.Add(isa.Sync, isa.Warps(n/16))
		red.Add(isa.Misc, isa.Warps(n))
		e.launch("energy_virial_reduce", s.N, red, []memsim.Stream{
			{Name: "per-atom-e", FootprintBytes: uint64(n * 8), AccessBytes: uint64(n * 8), ElemBytes: 8, Pattern: memsim.Coalesced, Partitioned: true},
		}, 0)
	}
}

type kernelNames struct {
	spread, fftFwd, solve, fftInv, gather, bonded, update string
}

func (e *Engine) kernelNames() kernelNames {
	if e.cfg.Flavor == GromacsFlavor {
		return kernelNames{
			spread: "pme_spread_charges",
			fftFwd: "cufft_radix8_forward",
			solve:  "pme_solve_kspace",
			fftInv: "cufft_radix8_inverse",
			gather: "pme_gather_forces",
			bonded: "bonded_forces",
			update: "update_constraints",
		}
	}
	update := "nve_integrate"
	if e.cfg.EwaldAlpha == 0 {
		// The colloid input integrates finite-size spheres.
		update = "nve_sphere_integrate"
	}
	return kernelNames{
		spread: "pppm_spread_charges",
		fftFwd: "pppm_fft_forward",
		solve:  "pppm_solve_poisson",
		fftInv: "pppm_fft_inverse",
		gather: "pppm_gather_field",
		bonded: "bonded_forces",
		update: update,
	}
}
