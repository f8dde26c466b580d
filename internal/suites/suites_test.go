package suites_test

import (
	"testing"

	"repro/internal/gpu"
	"repro/internal/profiler"
	"repro/internal/roofline"
	"repro/internal/suites/parboil"
	"repro/internal/suites/rodinia"
	"repro/internal/suites/tango"
	"repro/internal/units"
	"repro/internal/workloads"
)

func session(t *testing.T) *profiler.Session {
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

func allBaselines() []workloads.Workload {
	var out []workloads.Workload
	out = append(out, parboil.All()...)
	out = append(out, rodinia.All()...)
	out = append(out, tango.All()...)
	return out
}

func TestTableIIIBenchmarkCounts(t *testing.T) {
	if got := len(parboil.All()); got != 11 {
		t.Errorf("parboil has %d benchmarks, Table III lists 11", got)
	}
	if got := len(rodinia.All()); got != 18 {
		t.Errorf("rodinia has %d benchmarks, Table III lists 18", got)
	}
	if got := len(tango.All()); got != 3 {
		t.Errorf("tango has %d benchmarks, Table III lists 3", got)
	}
}

func TestAllBaselinesRun(t *testing.T) {
	for _, w := range allBaselines() {
		s := session(t)
		if err := w.Run(s); err != nil {
			t.Errorf("%s: %v", w.Abbr(), err)
			continue
		}
		if s.LaunchCount() == 0 {
			t.Errorf("%s: launched no kernels", w.Abbr())
		}
		if s.TotalWarpInstructions() == 0 {
			t.Errorf("%s: executed no instructions", w.Abbr())
		}
	}
}

// TestFewKernelsDominate verifies the Figure 2 property: baseline
// benchmarks spend >= 70% of GPU time in at most 3 kernels, and the large
// majority concentrate in 1-2.
func TestFewKernelsDominate(t *testing.T) {
	oneOrTwo := 0
	total := 0
	for _, w := range allBaselines() {
		s := session(t)
		if err := w.Run(s); err != nil {
			t.Fatalf("%s: %v", w.Abbr(), err)
		}
		tt := s.TotalTime()
		cum, k := 0.0, 0
		for _, kp := range s.Kernels() {
			cum += (kp.TotalTime / tt).Float()
			k++
			if cum >= 0.7 {
				break
			}
		}
		total++
		if k <= 2 {
			oneOrTwo++
		}
		if k > 3 {
			t.Errorf("%s: needs %d kernels for 70%% — baseline benchmarks are kernel-centric", w.Abbr(), k)
		}
	}
	// Paper: ~95% of the 31 workloads need at most 2 kernels for 70%.
	if frac := float64(oneOrTwo) / float64(total); frac < 0.8 {
		t.Errorf("only %.0f%% of baselines concentrate 70%% of time in <= 2 kernels, want >= 80%%", frac*100)
	}
}

// TestUnambiguousRooflineBehavior verifies Observation #4: per workload,
// baseline kernels (weighted by time) fall overwhelmingly on one side of
// the elbow — with LUD and AN as the paper's two known mixed exceptions.
func TestUnambiguousRooflineBehavior(t *testing.T) {
	model := roofline.ForDevice(gpu.RTX3080())
	mixed := map[string]bool{}
	for _, w := range allBaselines() {
		s := session(t)
		if err := w.Run(s); err != nil {
			t.Fatalf("%s: %v", w.Abbr(), err)
		}
		tt := s.TotalTime()
		var memShare, cmpShare units.Fraction
		for _, kp := range s.Kernels() {
			share := units.Share(kp.TotalTime, tt)
			if share < 0.1 {
				continue // only significant kernels matter for ambiguity
			}
			ii := kp.Metrics().Get(profiler.InstIntensity)
			if model.Classify(ii) == roofline.MemoryIntensive {
				memShare += share
			} else {
				cmpShare += share
			}
		}
		if memShare > 0.1 && cmpShare > 0.1 {
			mixed[w.Abbr()] = true
		}
	}
	// A couple of mixed workloads are expected (the paper names LUD and
	// AN); pervasive mixing would contradict Observation #4.
	if len(mixed) > 5 {
		t.Errorf("%d baselines show mixed behavior (%v), want <= 5", len(mixed), mixed)
	}
}

// TestLUDHasKernelsOnBothSides pins the paper's named exception: LUD
// consists of a memory-intensive kernel and a compute-intensive kernel.
func TestLUDHasKernelsOnBothSides(t *testing.T) {
	model := roofline.ForDevice(gpu.RTX3080())
	s := session(t)
	var lud workloads.Workload
	for _, w := range rodinia.All() {
		if w.Abbr() == "rd-lud" {
			lud = w
		}
	}
	if err := lud.Run(s); err != nil {
		t.Fatal(err)
	}
	var mem, cmp bool
	for _, k := range s.Kernels() {
		ii := k.Metrics().Get(profiler.InstIntensity)
		if model.Classify(ii) == roofline.MemoryIntensive {
			mem = true
		} else {
			cmp = true
		}
	}
	if !mem || !cmp {
		t.Errorf("LUD kernels not mixed (mem=%v cmp=%v)", mem, cmp)
	}
}

// TestKnownKernelCharacters pins the paper's named classifications.
func TestKnownKernelCharacters(t *testing.T) {
	model := roofline.ForDevice(gpu.RTX3080())
	check := func(w workloads.Workload, wantSide roofline.Side) {
		t.Helper()
		s := session(t)
		if err := w.Run(s); err != nil {
			t.Fatal(err)
		}
		dom := s.Kernels()[0]
		ii := dom.Metrics().Get(profiler.InstIntensity)
		if got := model.Classify(ii); got != wantSide {
			t.Errorf("%s dominant kernel %s: II=%.2f -> %v, want %v", w.Abbr(), dom.Name, ii, got, wantSide)
		}
	}
	// Memory-intensive per Fig. 4: Parboil bfs, spmv, stencil, lbm; Rodinia
	// kmeans, srad, bfs.
	for _, w := range parboil.All() {
		switch w.Abbr() {
		case "pb-bfs", "pb-spmv", "pb-stencil", "pb-lbm":
			check(w, roofline.MemoryIntensive)
		case "pb-sgemm", "pb-mri-q", "pb-cutcp":
			check(w, roofline.ComputeIntensive)
		}
	}
	for _, w := range rodinia.All() {
		switch w.Abbr() {
		case "rd-kmeans", "rd-srad", "rd-bfs":
			check(w, roofline.MemoryIntensive)
		case "rd-lavamd", "rd-b+tree":
			check(w, roofline.ComputeIntensive)
		}
	}
	// Tango: SN and RN all compute-intensive.
	for _, w := range tango.All() {
		if w.Abbr() == "SN" || w.Abbr() == "RN" {
			check(w, roofline.ComputeIntensive)
		}
	}
}

// TestTangoAlexNetMixed verifies AN's paper classification: two compute
// kernels and one memory kernel (the fc weight streaming).
func TestTangoAlexNetMixed(t *testing.T) {
	model := roofline.ForDevice(gpu.RTX3080())
	s := session(t)
	if err := tango.AlexNet().Run(s); err != nil {
		t.Fatal(err)
	}
	sides := map[string]roofline.Side{}
	for _, k := range s.Kernels() {
		sides[k.Name] = model.Classify(k.Metrics().Get(profiler.InstIntensity))
	}
	if sides["conv2d_gpu"] != roofline.ComputeIntensive {
		t.Error("AN conv kernel should be compute-intensive")
	}
	if sides["fc_gpu"] != roofline.MemoryIntensive {
		t.Error("AN fc kernel should be memory-intensive")
	}
}

func TestBenchIdentity(t *testing.T) {
	w := parboil.All()[0]
	if w.Suite() != workloads.Parboil {
		t.Error("suite")
	}
	if w.Name() == "" || w.Abbr() == "" {
		t.Error("identity")
	}
}
