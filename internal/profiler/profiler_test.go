package profiler

import (
	"testing"

	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/memsim"
)

func session(t *testing.T) *Session {
	t.Helper()
	d, err := gpu.New(gpu.RTX3080())
	if err != nil {
		t.Fatal(err)
	}
	return NewSession(d)
}

func spec(name string, insts uint64, memHeavy bool) gpu.KernelSpec {
	var mix isa.Mix
	if memHeavy {
		mix.Add(isa.LoadGlobal, insts/2)
		mix.Add(isa.INT, insts/4)
		mix.Add(isa.Misc, insts/4)
	} else {
		mix.Add(isa.FP32, insts*3/4)
		mix.Add(isa.INT, insts/8)
		mix.Add(isa.Branch, insts/16)
		mix.Add(isa.LoadGlobal, insts/16)
	}
	bytes := insts * 4
	if !memHeavy {
		bytes = insts / 8
	}
	if bytes < 1024 {
		bytes = 1024
	}
	return gpu.KernelSpec{
		Name: name, Grid: gpu.D1(1024), Block: gpu.D1(256), Mix: mix,
		Streams: []memsim.Stream{{
			Name: "data", FootprintBytes: bytes, AccessBytes: bytes,
			ElemBytes: 4, Pattern: memsim.Coalesced, Partitioned: true,
		}},
	}
}

func TestMetricNames(t *testing.T) {
	if GIPS.String() != "GIPS" || StallMem.String() != "Memory stall" {
		t.Error("metric names")
	}
	if Metric(200).String() == "" {
		t.Error("out-of-range metric should render")
	}
	if len(Metrics()) != NumMetrics {
		t.Error("Metrics() length")
	}
}

func TestPrimarySplit(t *testing.T) {
	prim := PrimaryMetrics()
	if len(prim) != 4 {
		t.Fatalf("primary metrics = %d, want 4 (paper Section V-C)", len(prim))
	}
	for _, m := range prim {
		if !m.Primary() {
			t.Errorf("%v should be primary", m)
		}
	}
	sec := SecondaryMetrics()
	if len(prim)+len(sec) != NumMetrics {
		t.Error("primary + secondary != all")
	}
	for _, m := range sec {
		if m.Primary() {
			t.Errorf("%v should not be primary", m)
		}
	}
}

func TestSessionRecordsLaunches(t *testing.T) {
	s := session(t)
	if _, err := s.Launch(spec("k1", 1<<22, false)); err != nil {
		t.Fatal(err)
	}
	s.MustLaunch(spec("k2", 1<<22, true))
	s.MustLaunch(spec("k1", 1<<22, false))
	if s.LaunchCount() != 3 {
		t.Errorf("launch count = %d", s.LaunchCount())
	}
	if len(s.Launches()) != 3 {
		t.Error("Launches() length")
	}
	if s.TotalTime() <= 0 {
		t.Error("total time should be positive")
	}
	wantInsts := 3 * spec("x", 1<<22, false).Mix.Total()
	// k2 has a different mix total, recompute.
	wantInsts = spec("k1", 1<<22, false).Mix.Total()*2 + spec("k2", 1<<22, true).Mix.Total()
	if got := uint64(s.TotalWarpInstructions()); got != wantInsts {
		t.Errorf("total warp insts = %d, want %d", got, wantInsts)
	}
}

func TestSessionLaunchError(t *testing.T) {
	s := session(t)
	if _, err := s.Launch(gpu.KernelSpec{}); err == nil {
		t.Error("invalid spec should error")
	}
	if s.LaunchCount() != 0 {
		t.Error("failed launch must not be recorded")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustLaunch should panic")
		}
	}()
	s.MustLaunch(gpu.KernelSpec{})
}

// TestDevicelessSessionCollectsSpecs checks the session behind `cactus
// lint`: without a device, launches are recorded in issue order — even
// invalid ones, so gpu.CheckSpec can report them — priced at zero, and
// kept out of the launch results.
func TestDevicelessSessionCollectsSpecs(t *testing.T) {
	s := NewSession(nil)
	good := spec("k", 1000, false)
	bad := spec("", 1000, false) // Validate would reject this; the session must still record it

	for _, sp := range []gpu.KernelSpec{good, bad} {
		res, err := s.Launch(sp)
		if err != nil {
			t.Fatalf("Launch(%q) = %v, want nil (a device-less session records, not rejects)", sp.Name, err)
		}
		if res != (gpu.LaunchResult{}) {
			t.Errorf("Launch(%q) = %+v, want the zero result", sp.Name, res)
		}
	}

	specs := s.Specs()
	if len(specs) != 2 {
		t.Fatalf("Specs() returned %d specs, want 2", len(specs))
	}
	if specs[0].Name != "k" || specs[1].Name != "" {
		t.Errorf("Specs() = %q, %q; want recorded launch order", specs[0].Name, specs[1].Name)
	}
	if n := s.LaunchCount(); n != 0 {
		t.Errorf("LaunchCount() = %d, want 0 (nothing was priced)", n)
	}
}

func TestKernelAggregation(t *testing.T) {
	s := session(t)
	s.MustLaunch(spec("alpha", 1<<24, false))
	s.MustLaunch(spec("alpha", 1<<24, false))
	s.MustLaunch(spec("beta", 1<<20, true))
	ks := s.Kernels()
	if len(ks) != 2 {
		t.Fatalf("kernels = %d, want 2", len(ks))
	}
	// alpha has 2 invocations and more total time, so it ranks first.
	if ks[0].Name != "alpha" || ks[0].Invocations != 2 {
		t.Errorf("dominant kernel = %s x%d", ks[0].Name, ks[0].Invocations)
	}
	if ks[0].TotalTime <= ks[1].TotalTime {
		t.Error("kernels must be sorted by descending total time")
	}
	if uint64(ks[0].WarpInstructions()) != 2*spec("x", 1<<24, false).Mix.Total() {
		t.Error("aggregated instruction count")
	}
}

// TestKernelTotalOverhead — the profile's accumulated launch overhead is
// exactly invocations x the device's fixed per-launch overhead, and never
// exceeds the kernel's total time: the inputs the attribution tree's
// overhead category derives from.
func TestKernelTotalOverhead(t *testing.T) {
	s := session(t)
	s.MustLaunch(spec("alpha", 1<<24, false))
	s.MustLaunch(spec("alpha", 1<<24, false))
	s.MustLaunch(spec("beta", 1<<20, true))
	perLaunchNs := s.Device().Config().LaunchOverheadNs
	for _, k := range s.Kernels() {
		want := float64(k.Invocations) * perLaunchNs
		if got := k.TotalOverhead.Nanos(); got != want {
			t.Errorf("%s: TotalOverhead = %g ns, want %g ns", k.Name, got, want)
		}
		if k.TotalOverhead > k.TotalTime {
			t.Errorf("%s: overhead %g s exceeds total time %g s",
				k.Name, k.TotalOverhead.Float(), k.TotalTime.Float())
		}
	}
}

func TestKernelMetricsVector(t *testing.T) {
	s := session(t)
	s.MustLaunch(spec("m", 1<<24, true))
	k := s.Kernels()[0]
	v := k.Metrics()
	if v.Get(GIPS) <= 0 {
		t.Error("GIPS should be positive")
	}
	if v.Get(InstIntensity) <= 0 {
		t.Error("II should be positive")
	}
	if v.Get(WarpOccupancy) <= 0 || v.Get(WarpOccupancy) > 48 {
		t.Errorf("occupancy = %g out of (0,48]", v.Get(WarpOccupancy))
	}
	if v.Get(SMEfficiency) <= 0 || v.Get(SMEfficiency) > 1 {
		t.Errorf("SM efficiency = %g", v.Get(SMEfficiency))
	}
	if f := v.Get(FracLDST); f <= 0 || f >= 1 {
		t.Errorf("frac LD/ST = %g", f)
	}
	for _, m := range []Metric{StallExec, StallPipe, StallSync, StallMem, L1HitRate, L2HitRate} {
		if v.Get(m) < 0 || v.Get(m) > 1 {
			t.Errorf("%v = %g out of [0,1]", m, v.Get(m))
		}
	}
}

func TestEmptyProfileMetrics(t *testing.T) {
	k := &KernelProfile{Name: "empty"}
	v := k.Metrics()
	if v.Get(GIPS) != 0 {
		t.Error("empty profile metrics should be zero")
	}
}

func TestMemVsComputeCharacter(t *testing.T) {
	s := session(t)
	s.MustLaunch(spec("mem", 1<<24, true))
	s.MustLaunch(spec("cmp", 1<<24, false))
	var memII, cmpII float64
	for _, k := range s.Kernels() {
		switch k.Name {
		case "mem":
			memII = k.Metrics().Get(InstIntensity)
		case "cmp":
			cmpII = k.Metrics().Get(InstIntensity)
		}
	}
	if memII >= cmpII {
		t.Errorf("memory kernel II %g should be below compute kernel II %g", memII, cmpII)
	}
}

func TestConcurrentLaunches(t *testing.T) {
	s := session(t)
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 10; j++ {
				s.MustLaunch(spec("par", 1<<18, j%2 == 0))
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if s.LaunchCount() != 80 {
		t.Errorf("launch count = %d, want 80", s.LaunchCount())
	}
}
