package gpu

import (
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/memsim"
	"repro/internal/units"
)

func TestRTX3080Roofs(t *testing.T) {
	cfg := RTX3080()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// The paper's derivations: 68 x 4 x 1.9 = 516.8 GIPS; 760.3/32 = 23.76
	// GTXN/s; elbow at 21.76.
	if got := cfg.PeakGIPS(); math.Abs(got-516.8) > 0.01 {
		t.Errorf("PeakGIPS = %g, want 516.8", got)
	}
	if got := cfg.PeakGTXN(); math.Abs(got-23.759) > 0.01 {
		t.Errorf("PeakGTXN = %g, want 23.76", got)
	}
	if got := cfg.ElbowII(); math.Abs(got-21.75) > 0.05 {
		t.Errorf("ElbowII = %g, want 21.76", got)
	}
}

func TestDeviceConfigValidation(t *testing.T) {
	cases := []func(*DeviceConfig){
		func(c *DeviceConfig) { c.NumSMs = 0 },
		func(c *DeviceConfig) { c.SchedulersPerSM = 0 },
		func(c *DeviceConfig) { c.ClockGHz = 0 },
		func(c *DeviceConfig) { c.DRAMBandwidth = -1 },
		func(c *DeviceConfig) { c.WarpSize = 64 },
		func(c *DeviceConfig) { c.MaxWarpsPerSM = 0 },
	}
	for i, mutate := range cases {
		cfg := RTX3080()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New should reject invalid config", i)
		}
	}
}

func TestGTX1080IsSlower(t *testing.T) {
	if GTX1080().PeakGIPS() >= RTX3080().PeakGIPS() {
		t.Error("GTX 1080 should have lower peak GIPS")
	}
	if err := GTX1080().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDim3(t *testing.T) {
	if D1(5).Count() != 5 {
		t.Error("D1")
	}
	if (Dim3{0, 0, 0}).Count() != 1 {
		t.Error("zero components should count as 1")
	}
	if (Dim3{2, 3, 1}).String() != "(2,3,1)" {
		t.Errorf("String = %q", Dim3{2, 3, 1}.String())
	}
}

func dev(t *testing.T) *Device {
	t.Helper()
	d, err := New(RTX3080())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// MustLaunch is Launch that panics on error, for tests whose specs are
// valid by construction.
func (d *Device) MustLaunch(spec KernelSpec) LaunchResult {
	res, err := d.Launch(spec)
	if err != nil {
		panic(err)
	}
	return res
}

func computeSpec(insts uint64) KernelSpec {
	var mix isa.Mix
	mix.Add(isa.FP32, insts*8/10)
	mix.Add(isa.INT, insts/10)
	mix.Add(isa.LoadGlobal, insts/20)
	mix.Add(isa.Misc, insts/20)
	return KernelSpec{
		Name: "compute", Grid: D1(2048), Block: D1(256), Mix: mix,
		Streams: []memsim.Stream{{
			Name: "in", FootprintBytes: 1 << 20, AccessBytes: 16 << 20,
			ElemBytes: 4, Pattern: memsim.Coalesced, Partitioned: true,
		}},
	}
}

func memSpec(bytes uint64) KernelSpec {
	insts := bytes / 16
	var mix isa.Mix
	mix.Add(isa.LoadGlobal, insts/2)
	mix.Add(isa.StoreGlobal, insts/4)
	mix.Add(isa.INT, insts/8)
	mix.Add(isa.Misc, insts/8)
	return KernelSpec{
		Name: "copy", Grid: D1(4096), Block: D1(256), Mix: mix,
		Streams: []memsim.Stream{
			{Name: "src", FootprintBytes: bytes, AccessBytes: bytes, ElemBytes: 4, Pattern: memsim.Coalesced, Partitioned: true},
			{Name: "dst", FootprintBytes: bytes, AccessBytes: bytes, ElemBytes: 4, Pattern: memsim.Coalesced, Store: true, Partitioned: true},
		},
	}
}

func TestSpecValidate(t *testing.T) {
	good := computeSpec(1 << 24)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Name = ""
	if bad.Validate() == nil {
		t.Error("empty name")
	}
	bad = good
	bad.Block = D1(2048)
	if bad.Validate() == nil {
		t.Error("block > 1024")
	}
	bad = good
	bad.Mix = isa.Mix{}
	if bad.Validate() == nil {
		t.Error("empty mix")
	}
	bad = good
	bad.DivergenceFraction = 1.5
	if bad.Validate() == nil {
		t.Error("divergence out of range")
	}
	bad = good
	bad.Trace = func(h *memsim.Hierarchy) {}
	bad.TraceCoverage = 0
	if bad.Validate() == nil {
		t.Error("trace without coverage")
	}
	if _, err := dev(t).Launch(bad); err == nil {
		t.Error("Launch should reject invalid spec")
	}
}

func TestLaunchComputeBoundNearPeak(t *testing.T) {
	d := dev(t)
	res, err := d.Launch(computeSpec(1 << 32)) // ~4.3 G warp insts
	if err != nil {
		t.Fatal(err)
	}
	if res.GIPS < 100 || res.GIPS > d.Config().PeakGIPS() {
		t.Errorf("compute-bound GIPS = %g, want 100..516.8", res.GIPS)
	}
	if res.InstIntensity < d.Config().ElbowII() {
		t.Errorf("II = %g, expected compute side (> %g)", res.InstIntensity, d.Config().ElbowII())
	}
	if res.SPUtil <= res.LDSTUtil {
		t.Error("compute kernel should use FP32 pipe more than LSU")
	}
}

func TestLaunchMemoryBoundNearMemRoof(t *testing.T) {
	d := dev(t)
	res, err := d.Launch(memSpec(1 << 30))
	if err != nil {
		t.Fatal(err)
	}
	ii := res.InstIntensity
	if ii >= d.Config().ElbowII() {
		t.Errorf("II = %g, expected memory side", ii)
	}
	roof := ii * d.Config().PeakGTXN()
	if res.GIPS > roof {
		t.Errorf("GIPS %g exceeds memory roof %g", res.GIPS, roof)
	}
	if res.GIPS < 0.5*roof {
		t.Errorf("GIPS %g too far below memory roof %g for a streaming copy", res.GIPS, roof)
	}
	if res.StallMem < 0.3 {
		t.Errorf("memory-bound kernel stall-mem = %g, want high", res.StallMem)
	}
}

func TestLaunchNeverExceedsRoofs(t *testing.T) {
	d := dev(t)
	specs := []KernelSpec{computeSpec(1 << 28), memSpec(1 << 28), computeSpec(1 << 20), memSpec(1 << 22)}
	for _, s := range specs {
		res, err := d.Launch(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.GIPS > d.Config().PeakGIPS()*1.0001 {
			t.Errorf("%s: GIPS %g exceeds peak", s.Name, res.GIPS)
		}
		if !math.IsInf(res.InstIntensity, 1) {
			roof := math.Min(d.Config().PeakGIPS(), res.InstIntensity*d.Config().PeakGTXN())
			if res.GIPS > roof*1.0001 {
				t.Errorf("%s: GIPS %g exceeds roofline %g at II %g", s.Name, res.GIPS, roof, res.InstIntensity)
			}
		}
	}
}

func TestSmallLaunchIsLatencyBound(t *testing.T) {
	d := dev(t)
	var mix isa.Mix
	mix.Add(isa.INT, 500)
	mix.Add(isa.LoadGlobal, 100)
	res, err := d.Launch(KernelSpec{
		Name: "tiny", Grid: D1(4), Block: D1(64), Mix: mix,
		Streams: []memsim.Stream{{Name: "f", FootprintBytes: 1 << 14, AccessBytes: 1 << 14, ElemBytes: 4, Pattern: memsim.Random}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Launch overhead dominates: performance far below 1% of peak.
	if res.GIPS > 0.01*d.Config().PeakGIPS() {
		t.Errorf("tiny kernel GIPS = %g, expected latency-bound (<5.17)", res.GIPS)
	}
	if res.SMEfficiency > 0.1 {
		t.Errorf("4-block launch SM efficiency = %g, want ~4/68", res.SMEfficiency)
	}
}

func TestDivergenceSlowsKernel(t *testing.T) {
	d := dev(t)
	base := computeSpec(1 << 28)
	conv, err := d.Launch(base)
	if err != nil {
		t.Fatal(err)
	}
	base.DivergenceFraction = 0.6
	div, err := d.Launch(base)
	if err != nil {
		t.Fatal(err)
	}
	if div.Time <= conv.Time {
		t.Errorf("divergent time %g should exceed converged %g", div.Time, conv.Time)
	}
}

func TestOccupancyLimits(t *testing.T) {
	cfg := RTX3080()
	// 256-thread blocks, default regs: warp-limited at 48/8 = 6 blocks.
	occ := occupancyOf(cfg, KernelSpec{Grid: D1(10000), Block: D1(256)})
	if occ.WarpsPerSM != 48 {
		t.Errorf("warps/SM = %d, want 48", occ.WarpsPerSM)
	}
	// A small register file: 32 regs x 256 threads = 8Ki regs per block,
	// so a 12Ki file holds 1 block.
	small := cfg
	small.RegistersPerSM = 12 << 10
	occ = occupancyOf(small, KernelSpec{Grid: D1(10000), Block: D1(256)})
	if occ.BlocksPerSM != 1 {
		t.Errorf("regs limit: %+v", occ)
	}
	// Small grid: achieved occupancy below theoretical.
	occ = occupancyOf(cfg, KernelSpec{Grid: D1(34), Block: D1(256)})
	if occ.Achieved >= float64(occ.WarpsPerSM) {
		t.Errorf("34-block achieved occupancy %g should be below theoretical %d", occ.Achieved, occ.WarpsPerSM)
	}
}

func TestSMEfficiencyTail(t *testing.T) {
	cfg := RTX3080()
	occ := occupancyOf(cfg, KernelSpec{Grid: D1(34), Block: D1(256)})
	if got := smEfficiency(cfg, KernelSpec{Grid: D1(34), Block: D1(256)}, occ); got != 0.5 {
		t.Errorf("34 blocks on 68 SMs: efficiency %g, want 0.5", got)
	}
	big := KernelSpec{Grid: D1(68 * 6 * 4), Block: D1(256)}
	if got := smEfficiency(cfg, big, occupancyOf(cfg, big)); got != 1 {
		t.Errorf("exact waves: efficiency %g, want 1", got)
	}
}

func TestTraceModeKernel(t *testing.T) {
	d := dev(t)
	var mix isa.Mix
	mix.Add(isa.LoadGlobal, 1<<20)
	mix.Add(isa.INT, 1<<20)
	res, err := d.Launch(KernelSpec{
		Name: "traced", Grid: D1(512), Block: D1(128), Mix: mix,
		TraceCoverage: 0.5,
		Trace: func(h *memsim.Hierarchy) {
			for a := uint64(0); a < 1<<20; a += 32 {
				h.AccessBatch([]uint64{a})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1 MB cold trace = 32768 sectors, scaled by 1/0.5 = 65536.
	if res.Traffic.Sectors != 65536 {
		t.Errorf("traced sectors = %d, want 65536", res.Traffic.Sectors)
	}
	if res.Traffic.DRAMTxns == 0 {
		t.Error("cold trace should reach DRAM")
	}
}

func TestStallsAreRatios(t *testing.T) {
	d := dev(t)
	for _, s := range []KernelSpec{computeSpec(1 << 26), memSpec(1 << 26)} {
		res, err := d.Launch(s)
		if err != nil {
			t.Fatal(err)
		}
		for name, v := range map[string]units.Fraction{
			"exec": res.StallExec, "pipe": res.StallPipe,
			"sync": res.StallSync, "mem": res.StallMem,
		} {
			if v < 0 || v > 1 {
				t.Errorf("%s: stall %s = %g out of [0,1]", s.Name, name, v)
			}
		}
		sum := res.StallExec + res.StallPipe + res.StallSync + res.StallMem
		if sum > 1.0001 {
			t.Errorf("%s: stall sum %g > 1", s.Name, sum)
		}
	}
}

func TestSyncHeavyKernelHasSyncStalls(t *testing.T) {
	d := dev(t)
	var mix isa.Mix
	mix.Add(isa.FP32, 1<<20)
	mix.Add(isa.Sync, 1<<18)
	res, err := d.Launch(KernelSpec{Name: "sync", Grid: D1(512), Block: D1(256), Mix: mix})
	if err != nil {
		t.Fatal(err)
	}
	if res.StallSync <= 0 {
		t.Error("sync-heavy kernel should report sync stalls")
	}
}

func TestMustLaunchPanics(t *testing.T) {
	d := dev(t)
	defer func() {
		if recover() == nil {
			t.Error("MustLaunch should panic on invalid spec")
		}
	}()
	d.MustLaunch(KernelSpec{})
}

func TestFP64PipePenalty(t *testing.T) {
	d := dev(t)
	var fmix, dmix isa.Mix
	fmix.Add(isa.FP32, 1<<28)
	dmix.Add(isa.FP64, 1<<28)
	f, err := d.Launch(KernelSpec{Name: "f32", Grid: D1(4096), Block: D1(256), Mix: fmix})
	if err != nil {
		t.Fatal(err)
	}
	g, err := d.Launch(KernelSpec{Name: "f64", Grid: D1(4096), Block: D1(256), Mix: dmix})
	if err != nil {
		t.Fatal(err)
	}
	if g.Time < 10*f.Time {
		t.Errorf("FP64 should be far slower: f32=%g f64=%g", f.Time, g.Time)
	}
}
