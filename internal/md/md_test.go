package md

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gpu"
	"repro/internal/profiler"
	"repro/internal/workloads"
)

func TestVec3Ops(t *testing.T) {
	a, b := Vec3{1, 2, 3}, Vec3{4, 5, 6}
	if a.Add(b) != (Vec3{5, 7, 9}) {
		t.Error("Add")
	}
	if b.Sub(a) != (Vec3{3, 3, 3}) {
		t.Error("Sub")
	}
	if a.Dot(b) != 32 {
		t.Error("Dot")
	}
	if (Vec3{3, 4, 0}).Norm() != 5 {
		t.Error("Norm")
	}
	if a.Scale(2) != (Vec3{2, 4, 6}) {
		t.Error("Scale")
	}
}

func TestNewSolvatedProtein(t *testing.T) {
	s, err := NewSolvatedProtein(50, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 250 {
		t.Errorf("N = %d", s.N)
	}
	if len(s.Bonds) != 49 || len(s.Angles) != 48 {
		t.Errorf("topology: %d bonds %d angles", len(s.Bonds), len(s.Angles))
	}
	// All positions inside the box.
	for i, p := range s.Pos {
		for k := 0; k < 3; k++ {
			if p[k] < 0 || p[k] >= s.Box {
				t.Fatalf("particle %d outside box: %v", i, p)
			}
		}
	}
	// Momentum zeroed.
	if s.Momentum().Norm() > 1e-9 {
		t.Errorf("initial momentum = %v", s.Momentum())
	}
	// Charges present (electrostatics path must fire).
	charged := 0
	for _, q := range s.Charge {
		if q != 0 {
			charged++
		}
	}
	if charged == 0 {
		t.Error("no charges in solvated protein")
	}
	if _, err := NewSolvatedProtein(2, 0, 1); err == nil {
		t.Error("too-small protein should fail")
	}
}

func TestNewColloid(t *testing.T) {
	s, err := NewColloid(8, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 108 {
		t.Errorf("N = %d", s.N)
	}
	if len(s.Bonds) != 0 {
		t.Error("colloid has no bonds")
	}
	for _, q := range s.Charge {
		if q != 0 {
			t.Fatal("colloid must be uncharged")
		}
	}
	if _, err := NewColloid(0, 10, 1); err == nil {
		t.Error("zero colloids should fail")
	}
}

func TestNeighborListFindsAllPairs(t *testing.T) {
	s, err := NewSolvatedProtein(20, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	cutoff, skin := 2.0, 0.3
	nl, err := BuildNeighborList(s, cutoff, skin)
	if err != nil {
		t.Fatal(err)
	}
	// Brute-force reference.
	rc2 := (cutoff + skin) * (cutoff + skin)
	want := 0
	for i := 0; i < s.N; i++ {
		for j := i + 1; j < s.N; j++ {
			d := s.minimumImage(s.Pos[i], s.Pos[j])
			if d.Dot(d) < rc2 {
				want++
			}
		}
	}
	if nl.Pairs() != want {
		t.Errorf("neighbor list has %d pairs, brute force %d", nl.Pairs(), want)
	}
	// Half list: no pair (i, j<=i).
	for i := 0; i < s.N; i++ {
		for _, j := range nl.NeighborsOf(i) {
			if int(j) <= i {
				t.Fatalf("half-list violation: %d -> %d", i, j)
			}
		}
	}
}

func TestCellListErrors(t *testing.T) {
	s, _ := NewColloid(1, 10, 1)
	if err := new(cellList).bin(s, 0); err == nil {
		t.Error("zero cell size should fail")
	}
}

func TestPairForcesNewtonThirdLaw(t *testing.T) {
	s, err := NewSolvatedProtein(30, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := BuildNeighborList(s, 2.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	clearForces(s)
	st := ComputePairForces(s, nl, 2.5, 0.9)
	if st.PairsInteracting == 0 {
		t.Fatal("no interacting pairs")
	}
	if st.CoulombPairs == 0 {
		t.Fatal("no coulomb pairs despite charges")
	}
	var net Vec3
	for _, f := range s.Force {
		net = net.Add(f)
	}
	if net.Norm() > 1e-8 {
		t.Errorf("net pair force = %v, want ~0 (Newton's third law)", net)
	}
}

func TestEnergyConservationNVE(t *testing.T) {
	// After equilibrating away initial overlaps, a short NVE run (no
	// thermostat) should roughly conserve kinetic + potential energy.
	s, err := NewColloid(4, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	cutoff := 2.5
	dt := 0.0005
	stepOnce := func(thermostat bool) {
		nl, err := BuildNeighborList(s, cutoff, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		clearForces(s)
		ComputePairForces(s, nl, cutoff, 0)
		Leapfrog(s, dt)
		if thermostat {
			BerendsenThermostat(s, 1.0, 0.2)
		}
	}
	for step := 0; step < 400; step++ { // equilibration: bleed off overlaps
		stepOnce(true)
	}
	energy := func() float64 {
		nl, err := BuildNeighborList(s, cutoff, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		clearForces(s)
		st := ComputePairForces(s, nl, cutoff, 0)
		return st.Energy + s.KineticEnergy()
	}
	e0 := energy()
	for step := 0; step < 200; step++ {
		stepOnce(false)
	}
	e1 := energy()
	drift := math.Abs(e1-e0) / math.Max(100, math.Abs(e0))
	if drift > 0.2 {
		t.Errorf("energy drift %.1f%% over 200 NVE steps (E %g -> %g)", drift*100, e0, e1)
	}
}

func TestThermostatDrivesTemperature(t *testing.T) {
	s, err := NewColloid(4, 300, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Heat the system to T=4 and let the thermostat pull it to 1.
	for i := range s.Vel {
		s.Vel[i] = s.Vel[i].Scale(2)
	}
	for step := 0; step < 200; step++ {
		BerendsenThermostat(s, 1.0, 0.1)
	}
	if T := s.Temperature(); math.Abs(T-1.0) > 0.15 {
		t.Errorf("temperature after thermostatting = %g, want ~1", T)
	}
}

func TestBarostatMovesBox(t *testing.T) {
	s, err := NewColloid(4, 300, 7)
	if err != nil {
		t.Fatal(err)
	}
	box0 := s.Box
	for i := 0; i < 50; i++ {
		BerendsenBarostat(s, 1.0, 0, 0.05)
	}
	if s.Box == box0 {
		t.Error("barostat never adjusted the box")
	}
	for _, p := range s.Pos {
		for k := 0; k < 3; k++ {
			if p[k] < 0 || p[k] >= s.Box {
				t.Fatal("positions left the box after barostat rescale")
			}
		}
	}
}

func TestConstraintsRestoreBondLengths(t *testing.T) {
	s, err := NewSolvatedProtein(20, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb positions.
	for i := range s.Pos {
		s.Pos[i] = s.wrap(s.Pos[i].Add(Vec3{0.1 * float64(i%3), -0.05, 0.07}))
	}
	iters := ApplyConstraints(s, 1e-3, 50)
	if iters == 0 {
		t.Fatal("constraints did not run")
	}
	for _, b := range s.Bonds {
		r := s.minimumImage(s.Pos[b.I], s.Pos[b.J]).Norm()
		if math.Abs(r-b.R0)/b.R0 > 5e-3 {
			t.Errorf("bond %d-%d length %g, want %g", b.I, b.J, r, b.R0)
		}
	}
}

func TestFFTRoundTripAndParseval(t *testing.T) {
	x := make([]complex128, 64)
	for i := range x {
		x[i] = complex(math.Sin(float64(i)*0.3), math.Cos(float64(i)*0.11))
	}
	orig := append([]complex128(nil), x...)
	var t0 float64
	for _, v := range orig {
		t0 += real(v)*real(v) + imag(v)*imag(v)
	}
	if err := FFT(x, false); err != nil {
		t.Fatal(err)
	}
	// Parseval: sum |X|^2 = n * sum |x|^2.
	var t1 float64
	for _, v := range x {
		t1 += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(t1-64*t0) > 1e-6*t1 {
		t.Errorf("Parseval violated: %g vs %g", t1, 64*t0)
	}
	if err := FFT(x, true); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
			t.Fatalf("round trip failed at %d: %v vs %v", i, x[i], orig[i])
		}
	}
	if err := FFT(make([]complex128, 3), false); err == nil {
		t.Error("non-power-of-two length should fail")
	}
}

func TestFFTKnownSpectrum(t *testing.T) {
	// A pure cosine at bin 3 should produce spikes at bins 3 and n-3.
	n := 32
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Cos(2*math.Pi*3*float64(i)/float64(n)), 0)
	}
	if err := FFT(x, false); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		mag := cmplx.Abs(x[i])
		if i == 3 || i == n-3 {
			if math.Abs(mag-16) > 1e-9 {
				t.Errorf("bin %d magnitude %g, want 16", i, mag)
			}
		} else if mag > 1e-9 {
			t.Errorf("bin %d magnitude %g, want 0", i, mag)
		}
	}
}

func TestFFT3DRoundTrip(t *testing.T) {
	g, err := NewGrid3D(8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Data {
		g.Data[i] = complex(float64(i%7), float64(i%3))
	}
	orig := append([]complex128(nil), g.Data...)
	if err := g.FFT3D(false); err != nil {
		t.Fatal(err)
	}
	if err := g.FFT3D(true); err != nil {
		t.Fatal(err)
	}
	for i := range g.Data {
		if cmplx.Abs(g.Data[i]-orig[i]) > 1e-9 {
			t.Fatalf("3D round trip failed at %d", i)
		}
	}
	if _, err := NewGrid3D(10); err == nil {
		t.Error("non-power-of-two grid should fail")
	}
}

func TestPMEChargeConservationInSpread(t *testing.T) {
	s, err := NewSolvatedProtein(40, 200, 9)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPME(16, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	updates := p.Spread(s)
	if updates == 0 {
		t.Fatal("spread performed no updates")
	}
	// Total grid charge equals total particle charge.
	var gridQ, partQ float64
	for _, v := range p.grid.Data {
		gridQ += real(v)
	}
	for _, q := range s.Charge {
		partQ += q
	}
	if math.Abs(gridQ-partQ) > 1e-9 {
		t.Errorf("grid charge %g != particle charge %g", gridQ, partQ)
	}
	// Solve produces a finite, nonnegative reciprocal energy.
	e, err := p.Solve(s.Box)
	if err != nil {
		t.Fatal(err)
	}
	if e < 0 || math.IsNaN(e) {
		t.Errorf("reciprocal energy = %g", e)
	}
	if reads := p.Gather(s); reads == 0 {
		t.Error("gather read nothing")
	}
	if _, err := NewPME(16, 0); err == nil {
		t.Error("zero alpha should fail")
	}
}

func newSession(t *testing.T) *profiler.Session {
	t.Helper()
	d, err := gpu.New(gpu.RTX3080())
	if err != nil {
		t.Fatal(err)
	}
	s := profiler.NewSession(d)
	t.Cleanup(func() {
		if err := s.Err(); err != nil {
			t.Errorf("launch failed: %v", err)
		}
	})
	return s
}

func TestConfigValidate(t *testing.T) {
	good := Gromacs().Config()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Steps = 0 },
		func(c *Config) { c.Cutoff = -1 },
		func(c *Config) { c.Skin = -0.1 },
		func(c *Config) { c.Replication = 0.5 },
		func(c *Config) { c.RebuildEvery = 0 },
	} {
		c := good
		mutate(&c)
		if c.Validate() == nil {
			t.Error("invalid config accepted")
		}
	}
}

func TestGromacsWorkloadKernelSet(t *testing.T) {
	w := Gromacs()
	if w.Abbr() != "GMS" || w.Suite() != workloads.Cactus || w.Domain() != workloads.Molecular {
		t.Error("GMS identity")
	}
	s := newSession(t)
	if err := w.Run(s); err != nil {
		t.Fatal(err)
	}
	ks := s.Kernels()
	// Table I: GMS executes 9 kernels.
	if len(ks) != 9 {
		names := make([]string, len(ks))
		for i, k := range ks {
			names[i] = k.Name
		}
		t.Errorf("GMS kernels = %d (%v), want 9", len(ks), names)
	}
	// The nonbonded kernel must be the dominant one.
	if ks[0].Name != "nbnxn_kernel_ElecEwald_VdwLJ_F" {
		t.Errorf("dominant kernel = %s", ks[0].Name)
	}
}

func TestLammpsRhodopsinKernelSet(t *testing.T) {
	s := newSession(t)
	if err := LammpsRhodopsin().Run(s); err != nil {
		t.Fatal(err)
	}
	ks := s.Kernels()
	// Table I: LMR executes 15 kernels.
	if len(ks) != 15 {
		names := make([]string, len(ks))
		for i, k := range ks {
			names[i] = k.Name
		}
		t.Errorf("LMR kernels = %d (%v), want 15", len(ks), names)
	}
	if ks[0].Name != "pair_lj_charmm_coul_long" {
		t.Errorf("dominant kernel = %s", ks[0].Name)
	}
}

func TestLammpsColloidKernelSetDiffersFromRhodopsin(t *testing.T) {
	s := newSession(t)
	if err := LammpsColloid().Run(s); err != nil {
		t.Fatal(err)
	}
	ks := s.Kernels()
	// Table I: LMC executes 9 kernels.
	if len(ks) != 9 {
		names := make([]string, len(ks))
		for i, k := range ks {
			names[i] = k.Name
		}
		t.Errorf("LMC kernels = %d (%v), want 9", len(ks), names)
	}
	names := map[string]bool{}
	for _, k := range ks {
		names[k.Name] = true
	}
	// Observation #3: same code base, different input, different kernels.
	if !names["pair_colloid"] {
		t.Error("colloid input must trigger pair_colloid")
	}
	if names["pair_lj_charmm_coul_long"] || names["pppm_spread_charges"] {
		t.Error("colloid input must not trigger the electrostatics kernels")
	}
}

// TestDominantKernelCharacters pins the Figure 6c observations: the
// molecular workloads mix compute- and memory-intensive kernels among
// their dominant sets.
func TestDominantKernelCharacters(t *testing.T) {
	const elbow = 21.76
	for _, tc := range []struct {
		w       *Workload
		wantCmp string // a dominant kernel expected on the compute side
	}{
		{Gromacs(), "nbnxn_kernel_ElecEwald_VdwLJ_F"},
		{LammpsRhodopsin(), "pair_lj_charmm_coul_long"},
		{LammpsColloid(), "pair_colloid"},
	} {
		s := newSession(t)
		if err := tc.w.Run(s); err != nil {
			t.Fatal(err)
		}
		total := s.TotalTime()
		var sawCmp, sawMem bool
		cum := 0.0
		for _, k := range s.Kernels() {
			cum += (k.TotalTime / total).Float()
			ii := k.Metrics()[1] // InstIntensity
			if k.Name == tc.wantCmp {
				if ii < elbow {
					t.Errorf("%s: %s II=%.1f, want compute-intensive", tc.w.Abbr(), k.Name, ii)
				}
				sawCmp = true
			} else if ii < elbow {
				sawMem = true
			}
			if cum >= 0.9 {
				break
			}
		}
		if !sawCmp || !sawMem {
			t.Errorf("%s: dominant set not mixed (cmp=%v mem=%v)", tc.w.Abbr(), sawCmp, sawMem)
		}
	}
}

func TestEngineRebuildsNeighborList(t *testing.T) {
	s := newSession(t)
	sys, err := NewColloid(8, 300, 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg := LammpsColloid().Config()
	cfg.Steps = 20
	eng, err := NewEngine(cfg, sys, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.Rebuilds < 2 {
		t.Errorf("rebuilds = %d, want >= 2 over 20 steps", eng.Rebuilds)
	}
}

// Config exposes the run configuration.
func (w *Workload) Config() Config { return w.cfg }

// BuildNeighborList builds a Verlet half-list with the given cutoff+skin
// radius into fresh buffers, as the engine's first build does.
func BuildNeighborList(s *System, cutoff, skin float64) (*NeighborList, error) {
	nl := new(NeighborList)
	if err := nl.build(s, cutoff, skin, new(cellList)); err != nil {
		return nil, err
	}
	return nl, nil
}

// TestStepOffGridPosition runs the first step of caller-built systems, whose
// positions no step has wrapped yet: a non-finite coordinate fails the
// neighbor build with an error, and a finite one three boxes off the grid
// still gets a list.
func TestStepOffGridPosition(t *testing.T) {
	for _, tc := range []struct {
		name    string
		x       func(box float64) float64
		wantErr bool
	}{
		{"NaN", func(float64) float64 { return math.NaN() }, true},
		{"+Inf", func(float64) float64 { return math.Inf(1) }, true},
		{"-3Box", func(box float64) float64 { return -3 * box }, false},
		{"+3Box", func(box float64) float64 { return 3 * box }, false},
	} {
		sys, err := NewColloid(8, 100, 1)
		if err != nil {
			t.Fatal(err)
		}
		sys.Pos[5][0] = tc.x(sys.Box)
		eng, err := NewEngine(LammpsColloid().Config(), sys, profiler.NewSession(nil))
		if err != nil {
			t.Fatal(err)
		}
		err = eng.Step(0)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: step succeeded, want a non-finite position error", tc.name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(eng.nl.Offsets) != sys.N+1 || eng.nl.Pairs() == 0 {
			t.Errorf("%s: list has %d offsets and %d pairs for %d particles", tc.name, len(eng.nl.Offsets), eng.nl.Pairs(), sys.N)
		}
	}
}

// sameNeighborList fails t unless BuildNeighborList and the reference
// build the same list for s.
func sameNeighborList(t *testing.T, what string, s *System, cutoff, skin float64) {
	t.Helper()
	got, err := BuildNeighborList(s, cutoff, skin)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refBuildNeighborList(s, cutoff, skin)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Neigh, want.Neigh) || got.Cutoff != want.Cutoff {
		t.Fatalf("%s: neighbor list (%d pairs) differs from the reference (%d pairs)", what, got.Pairs(), want.Pairs())
	}
}

// eachStep runs w on a device-less session and calls check with the engine
// before every step.
func eachStep(t *testing.T, w *Workload, check func(sys *System, eng *Engine)) {
	t.Helper()
	sys, err := w.build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := w.Config()
	eng, err := NewEngine(cfg, sys, profiler.NewSession(nil))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < cfg.Steps; step++ {
		check(sys, eng)
		if err := eng.Step(step); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNeighborListMatchesReference holds the neighbor search to the full
// distance test's list on the study's three systems at every step of their
// runs (the box breathes under GMS's barostat), and on boxes of one and
// two cells per edge.
func TestNeighborListMatchesReference(t *testing.T) {
	for _, w := range []*Workload{Gromacs(), LammpsRhodopsin(), LammpsColloid()} {
		cfg := w.Config()
		eachStep(t, w, func(sys *System, _ *Engine) {
			sameNeighborList(t, w.Abbr(), sys, cfg.Cutoff, cfg.Skin)
		})
	}
	s, err := NewColloid(8, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, cells := range []float64{1.2, 2.5} {
		var cl cellList
		if err := cl.bin(s, s.Box/cells); err != nil || cl.side >= 3 {
			t.Fatalf("box of %d cells per edge (%v)", cl.side, err)
		}
		sameNeighborList(t, "small box", s, s.Box/cells-0.1, 0.1)
	}
}

// TestNeighborListMatchesReferenceRandom compares the search with the
// reference on seeded random systems of 3 to 8 cells per edge, with the
// list cutoff equal to or below the cell edge. Coordinates crowd the cell
// boundaries (k·edge and one ulp either side), the box edge
// (math.Nextafter(Box, 0), whose cell quotient can round up to the cell
// count) and the cutoff distance from another particle, directly and
// through the periodic wrap; one in 40 lies outside the box.
func TestNeighborListMatchesReferenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	ulp := func(v float64) float64 {
		switch r.Intn(3) {
		case 0:
			return math.Nextafter(v, math.Inf(-1))
		case 1:
			return math.Nextafter(v, math.Inf(1))
		}
		return v
	}
	offGrid := 0
	for trial := 0; trial < 1500; trial++ {
		side := 3 + r.Intn(6)
		box := 4 + 16*r.Float64()
		rc := box / float64(side)
		if r.Intn(2) == 0 {
			rc *= 0.5 + 0.5*r.Float64()
		}
		s := newSystem(20+r.Intn(100), box)
		var cl cellList
		if err := cl.bin(s, rc); err != nil {
			t.Fatal(err)
		}
		coord := func() float64 {
			var v float64
			switch k := r.Intn(40); {
			case k == 0:
				// Outside the box, as a caller other than the engine may
				// pass.
				return box * (2*r.Float64() - 0.5)
			case k < 14:
				v = r.Float64() * box
			case k < 27:
				v = ulp(float64(r.Intn(cl.side+1)) * cl.size)
			default:
				v = math.Nextafter(box, 0)
			}
			return math.Max(0, math.Min(v, math.Nextafter(box, 0)))
		}
		for i := range s.Pos {
			if i > 0 && r.Intn(4) == 0 {
				// The cutoff away from an earlier particle along one axis.
				p := s.Pos[r.Intn(i)]
				k := r.Intn(3)
				p[k] = ulp(p[k] + rc*float64(2*r.Intn(2)-1))
				s.Pos[i] = s.wrap(p)
			} else {
				s.Pos[i] = Vec3{coord(), coord(), coord()}
			}
			for _, v := range s.Pos[i] {
				if int(v/cl.size) == cl.side {
					offGrid++
				}
			}
		}
		sameNeighborList(t, fmt.Sprintf("trial %d (%d cells per edge, rc %g, edge %g)", trial, cl.side, rc, cl.size), s, rc, 0)
	}
	if offGrid == 0 {
		t.Fatal("no coordinate binned across the box edge")
	}
}

// TestImageBitsMatchesImage holds the branch-free minimum image to image,
// bit for bit, at signed zeros, infinities, NaN, both half-edges and an ulp
// either side of them, the box edge and random displacements.
func TestImageBitsMatchesImage(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, box := range []float64{13.07, 1, 3 * math.SmallestNonzeroFloat64, 0, math.Inf(1), math.NaN()} {
		s := &System{Box: box}
		half := box / 2
		ds := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), box, -box}
		for _, h := range []float64{half, -half} {
			ds = append(ds, h, math.Nextafter(h, math.Inf(1)), math.Nextafter(h, math.Inf(-1)))
		}
		for k := 0; k < 1000; k++ {
			ds = append(ds, (2*r.Float64()-1)*box)
		}
		for _, d := range ds {
			if got, want := imageBits(d, math.Float64bits(box), half), s.image(d); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("box %g: imageBits(%g) = %g, image %g", box, d, got, want)
			}
		}
	}
}

// TestPairForcesMatchReference holds ComputePairForces to the previous
// one-pass loop on the study's three systems: the statistics, the energy
// and every bit of every force, at every step of their runs after the
// first, over the list the engine holds going into the step.
func TestPairForcesMatchReference(t *testing.T) {
	for _, w := range []*Workload{Gromacs(), LammpsRhodopsin(), LammpsColloid()} {
		cfg := w.Config()
		eachStep(t, w, func(sys *System, eng *Engine) {
			if eng.Rebuilds == 0 {
				return
			}
			clearForces(sys)
			got := ComputePairForces(sys, &eng.nl, cfg.Cutoff, cfg.EwaldAlpha)
			gotForce := slices.Clone(sys.Force)
			clearForces(sys)
			want := refComputePairForces(sys, &eng.nl, cfg.Cutoff, cfg.EwaldAlpha)
			if got.PairsEvaluated != want.PairsEvaluated || got.PairsInteracting != want.PairsInteracting ||
				got.CoulombPairs != want.CoulombPairs || math.Float64bits(got.Energy) != math.Float64bits(want.Energy) {
				t.Fatalf("%s: stats %+v, reference %+v", w.Abbr(), got, want)
			}
			for i := range gotForce {
				for k := 0; k < 3; k++ {
					if math.Float64bits(gotForce[i][k]) != math.Float64bits(sys.Force[i][k]) {
						t.Fatalf("%s: force %d = %v, reference %v", w.Abbr(), i, gotForce[i], sys.Force[i])
					}
				}
			}
		})
	}
}

// TestNeighborListMatchesReferenceOnLattice puts particles on a lattice
// whose spacings hit the cutoff and half the box exactly, the boundaries
// of both the cutoff test and the minimum-image wrap.
func TestNeighborListMatchesReferenceOnLattice(t *testing.T) {
	const k, box = 8, 16.0
	s := newSystem(k*k*k, box)
	for i := range s.Pos {
		s.Pos[i] = Vec3{float64(i / (k * k)), float64(i / k % k), float64(i % k)}
		s.Pos[i] = s.Pos[i].Scale(box / k)
	}
	for _, rc := range []float64{box / 8, box / 4, 3 * box / 8, box / 2} {
		sameNeighborList(t, "lattice", s, rc, 0)
	}
}

// benchSystem is one of the study's MD systems with its run configuration.
type benchSystem struct {
	name string
	sys  *System
	cfg  Config
}

// benchSystems builds the GMS, LMR and LMC systems.
func benchSystems(b *testing.B) []benchSystem {
	var out []benchSystem
	for _, w := range []*Workload{Gromacs(), LammpsRhodopsin(), LammpsColloid()} {
		sys, err := w.build()
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, benchSystem{w.Abbr(), sys, w.Config()})
	}
	return out
}

var benchListSink *NeighborList

func BenchmarkBuildNeighborList(b *testing.B) {
	for _, bs := range benchSystems(b) {
		b.Run(bs.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nl, err := BuildNeighborList(bs.sys, bs.cfg.Cutoff, bs.cfg.Skin)
				if err != nil {
					b.Fatal(err)
				}
				benchListSink = nl
			}
		})
	}
}

func BenchmarkComputePairForces(b *testing.B) {
	for _, bs := range benchSystems(b) {
		b.Run(bs.name, func(b *testing.B) {
			nl, err := BuildNeighborList(bs.sys, bs.cfg.Cutoff, bs.cfg.Skin)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clearForces(bs.sys)
				ComputePairForces(bs.sys, nl, bs.cfg.Cutoff, bs.cfg.EwaldAlpha)
			}
		})
	}
}

// BenchmarkEngineRun times Engine.Run of each MD workload on a device-less
// session: the functional MD compute alone, without the device model. The
// system is built outside the timer.
func BenchmarkEngineRun(b *testing.B) {
	for _, w := range []*Workload{Gromacs(), LammpsRhodopsin(), LammpsColloid()} {
		b.Run(w.Abbr(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys, err := w.build()
				if err != nil {
					b.Fatal(err)
				}
				eng, err := NewEngine(w.Config(), sys, profiler.NewSession(nil))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := eng.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
