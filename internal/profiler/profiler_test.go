package profiler

import (
	"testing"

	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/memsim"
	"repro/internal/telemetry"
)

// session returns an RTX 3080 session whose launches must all pass.
func session(t *testing.T) *Session {
	t.Helper()
	d, err := gpu.New(gpu.RTX3080())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(d)
	t.Cleanup(func() {
		if err := s.Err(); err != nil {
			t.Errorf("launch failed: %v", err)
		}
	})
	return s
}

// Specs returns the specs a device-less session recorded, in issue order.
func (s *Session) Specs() []gpu.KernelSpec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]gpu.KernelSpec(nil), s.specs...)
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
	s.Submit(spec("k2", 1<<22, true))
	s.Submit(spec("k1", 1<<22, false))
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

// TestSessionLaunchError — a failed launch records nothing and becomes the
// session's error, and later launches, valid ones included, price nothing.
func TestSessionLaunchError(t *testing.T) {
	d, err := gpu.New(gpu.RTX3080())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(d)
	_, first := s.Launch(gpu.KernelSpec{Name: "empty", Grid: gpu.D1(1), Block: gpu.D1(32)})
	if first == nil {
		t.Fatal("invalid spec should error")
	}
	if _, err := s.Launch(spec("k", 1<<20, false)); err != first {
		t.Errorf("launch after a failure = %v, want the first error %v", err, first)
	}
	s.Submit(spec("k", 1<<20, false))
	if s.LaunchCount() != 0 {
		t.Error("no launch may be recorded once one has failed")
	}
	if err := s.Err(); err != first {
		t.Errorf("Err() = %v, want the first error %v", err, first)
	}
}

// badSpecs are launches that break the RTX 3080's spec limits: a block
// size that is not a warp multiple, and a block larger than any SM holds.
var badSpecs = func() []gpu.KernelSpec {
	var mix isa.Mix
	mix.Add(isa.FP32, 1<<10)
	return []gpu.KernelSpec{
		{Name: "ragged", Grid: gpu.D1(8), Block: gpu.D1(100), Mix: mix},
		{Name: "huge", Grid: gpu.D1(8), Block: gpu.D1(2048), Mix: mix},
	}
}()

// TestLaunchChecksSpec — Launch runs gpu.CheckSpec before pricing: each
// bad spec fails with one error naming the kernel and every rule it breaks
// with its detail, and nothing is priced.
func TestLaunchChecksSpec(t *testing.T) {
	want := map[string]string{
		"ragged": "profiler: kernel ragged: block-warp: block size 100 is not a multiple of WarpSize 32; the trailing partial warp wastes 28 lanes per block",
		"huge": "profiler: kernel huge: validate: gpu: kernel huge: block size 2048 exceeds 1024; " +
			"block-limit: block size 2048 exceeds the device limit of 1024 threads per block; " +
			"occupancy: zero theoretical occupancy: warps demand means not even one block fits on an SM",
	}
	for _, sp := range badSpecs {
		d, err := gpu.New(gpu.RTX3080())
		if err != nil {
			t.Fatal(err)
		}
		ctr := telemetry.NewCounters()
		d.SetTelemetry(nil, ctr)
		s := NewSession(d)
		_, err = s.Launch(sp)
		if err == nil || err.Error() != want[sp.Name] {
			t.Errorf("Launch(%s) = %v, want %q", sp.Name, err, want[sp.Name])
		}
		if n := ctr.Get(telemetry.CtrLaunches); n != 0 {
			t.Errorf("%s: the device priced %d launches, want 0", sp.Name, n)
		}
	}
}

// TestDevicelessSessionCollectsSpecs checks the capture session: without a
// device, launches are recorded in issue order — even invalid ones —
// priced at zero, and kept out of the launch results.
func TestDevicelessSessionCollectsSpecs(t *testing.T) {
	s := NewSession(nil)
	good := spec("k", 1000, false)
	bad := spec("", 1000, false) // Validate would reject this; the session must still record it

	for _, sp := range []gpu.KernelSpec{good, bad, badSpecs[0]} {
		res, err := s.Launch(sp)
		if err != nil {
			t.Fatalf("Launch(%q) = %v, want nil (a device-less session records, not rejects)", sp.Name, err)
		}
		if res != (gpu.LaunchResult{}) {
			t.Errorf("Launch(%q) = %+v, want the zero result", sp.Name, res)
		}
	}

	specs := s.Specs()
	if len(specs) != 3 {
		t.Fatalf("Specs() returned %d specs, want 3", len(specs))
	}
	if specs[0].Name != "k" || specs[1].Name != "" || specs[2].Name != "ragged" {
		t.Errorf("Specs() = %q, %q, %q; want recorded launch order", specs[0].Name, specs[1].Name, specs[2].Name)
	}
	if n := s.LaunchCount(); n != 0 {
		t.Errorf("LaunchCount() = %d, want 0 (nothing was priced)", n)
	}
}

func TestKernelAggregation(t *testing.T) {
	s := session(t)
	s.Submit(spec("alpha", 1<<24, false))
	s.Submit(spec("alpha", 1<<24, false))
	s.Submit(spec("beta", 1<<20, true))
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
	s.Submit(spec("alpha", 1<<24, false))
	s.Submit(spec("alpha", 1<<24, false))
	s.Submit(spec("beta", 1<<20, true))
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
	s.Submit(spec("m", 1<<24, true))
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
	s.Submit(spec("mem", 1<<24, true))
	s.Submit(spec("cmp", 1<<24, false))
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
				s.Submit(spec("par", 1<<18, j%2 == 0))
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
