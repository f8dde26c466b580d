package mlapps

import (
	"math"
	"testing"

	"repro/internal/gpu"
	"repro/internal/profiler"
	"repro/internal/roofline"
	"repro/internal/units"
	"repro/internal/workloads"
)

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

// appSessions holds each app's session by abbreviation, so that every app
// runs once per test binary; the tests only read the sessions.
var appSessions = map[string]*profiler.Session{}

// runApp returns the session of w's single run, running it on first use.
func runApp(t *testing.T, w *Workload) *profiler.Session {
	t.Helper()
	if s, ok := appSessions[w.Abbr()]; ok {
		return s
	}
	s := newSession(t)
	if err := w.Run(s); err != nil {
		t.Fatalf("%s: %v", w.Abbr(), err)
	}
	appSessions[w.Abbr()] = s
	return s
}

func TestWorkloadIdentities(t *testing.T) {
	for _, w := range []*Workload{DCGAN(), NeuralStyle(), ReinforcementLearning(), SpatialTransformer(), LanguageTranslation()} {
		if w.Suite() != workloads.Cactus || w.Domain() != workloads.MachineL {
			t.Errorf("%s: wrong suite/domain", w.Abbr())
		}
		if w.Name() == "" || w.Abbr() == "" {
			t.Error("empty identity")
		}
	}
}

// TestKernelCounts checks each app's distinct-kernel count against Table I
// (DCG 50, NST 44, RFL 50, SPT 37, LGT 66) with a tolerance band: the
// reproduction preserves tens-of-kernels complexity, not exact library
// template counts.
func TestKernelCounts(t *testing.T) {
	cases := []struct {
		w        *Workload
		lo, hi   int
		paperVal int
	}{
		{DCGAN(), 42, 58, 50},
		{NeuralStyle(), 34, 50, 44},
		{ReinforcementLearning(), 32, 55, 50},
		{SpatialTransformer(), 30, 44, 37},
		{LanguageTranslation(), 48, 72, 66},
	}
	for _, tc := range cases {
		s := runApp(t, tc.w)
		n := len(s.Kernels())
		if n < tc.lo || n > tc.hi {
			t.Errorf("%s: %d kernels, want %d..%d (paper: %d)", tc.w.Abbr(), n, tc.lo, tc.hi, tc.paperVal)
		}
	}
}

// TestManyKernelsNeededFor70Percent verifies Observation #1: the ML
// applications need on the order of a dozen kernels to reach 70% of GPU
// time, unlike single-kernel traditional benchmarks.
func TestManyKernelsNeededFor70Percent(t *testing.T) {
	for _, w := range []*Workload{DCGAN(), NeuralStyle(), ReinforcementLearning(), SpatialTransformer(), LanguageTranslation()} {
		s := runApp(t, w)
		total := s.TotalTime()
		cum, k := 0.0, 0
		for _, kp := range s.Kernels() {
			cum += (kp.TotalTime / total).Float()
			k++
			if cum >= 0.7 {
				break
			}
		}
		if k < 5 {
			t.Errorf("%s: only %d kernels needed for 70%% — too concentrated for an ML app", w.Abbr(), k)
		}
		if k > 25 {
			t.Errorf("%s: %d kernels for 70%% — implausibly flat", w.Abbr(), k)
		}
	}
}

// TestKernelTimeSharesSumToOne checks the per-kernel aggregation the
// dominant-kernel ranking reads: over each app's hundreds of launches the
// kernels' time shares sum to one, every kernel takes time, the ranking is
// by descending time and no launch is lost.
func TestKernelTimeSharesSumToOne(t *testing.T) {
	for _, w := range []*Workload{DCGAN(), NeuralStyle(), ReinforcementLearning(), SpatialTransformer(), LanguageTranslation()} {
		s := runApp(t, w)
		total := s.TotalTime()
		var share float64
		var inv int
		ks := s.Kernels()
		for i, k := range ks {
			if k.TotalTime <= 0 {
				t.Errorf("%s: kernel %s takes no time", w.Abbr(), k.Name)
			}
			if i > 0 && k.TotalTime > ks[i-1].TotalTime {
				t.Errorf("%s: kernel %s ranked below a faster kernel", w.Abbr(), k.Name)
			}
			share += (k.TotalTime / total).Float()
			inv += k.Invocations
		}
		if math.Abs(share-1) > 1e-9 {
			t.Errorf("%s: time shares sum to %g", w.Abbr(), share)
		}
		if inv != s.LaunchCount() {
			t.Errorf("%s: %d invocations for %d launches", w.Abbr(), inv, s.LaunchCount())
		}
	}
}

// TestMixedKernelCharacter verifies Observation #7: every ML app has both
// memory-intensive and compute-intensive kernels with wide II diversity.
func TestMixedKernelCharacter(t *testing.T) {
	model := roofline.Model{PeakGIPS: 516.8, PeakGTXN: 23.76, BoundThreshold: 0.01}
	for _, w := range []*Workload{DCGAN(), NeuralStyle(), ReinforcementLearning(), SpatialTransformer(), LanguageTranslation()} {
		s := runApp(t, w)
		var mem, cmp int
		for _, k := range s.Kernels() {
			ii := k.Metrics().Get(profiler.InstIntensity)
			if model.Classify(ii) == roofline.MemoryIntensive {
				mem++
			} else {
				cmp++
			}
		}
		if mem == 0 || cmp == 0 {
			t.Errorf("%s: kernels not mixed (mem=%d cmp=%d)", w.Abbr(), mem, cmp)
		}
	}
}

// TestLGTAggregateMemoryIntensive verifies the Figure 5 placement for LGT
// (clearly memory-intensive, lowest-performing ML app).
func TestLGTAggregateMemoryIntensive(t *testing.T) {
	s := runApp(t, LanguageTranslation())
	insts := s.TotalWarpInstructions().Float()
	var txns units.Txns
	for _, l := range s.Launches() {
		txns += l.Traffic.DRAMTxns
	}
	ii := insts / (txns.Float() + 1)
	if ii >= 21.76 {
		t.Errorf("LGT aggregate II = %g, want memory-intensive (< 21.76)", ii)
	}
}

// TestDCGANDominantKernelsComputeIntensive verifies the Figure 7c
// observation that DCG's top-ranked kernels are compute-intensive.
func TestDCGANDominantKernelsComputeIntensive(t *testing.T) {
	s := runApp(t, DCGAN())
	ks := s.Kernels()
	cmp := 0
	for i := 0; i < 4 && i < len(ks); i++ {
		if ks[i].Metrics().Get(profiler.InstIntensity) >= 21.76 {
			cmp++
		}
	}
	if cmp < 2 {
		t.Errorf("only %d of DCG's top-4 kernels are compute-intensive", cmp)
	}
}

// TestFlappyEnvPhysics exercises the RL environment directly.
func TestFlappyEnvPhysics(t *testing.T) {
	d := newDevice(t)
	env := newFlappyEnv(d.RNG, 16)
	obs := env.observation()
	if obs.Shape[1] != 4 || obs.Shape[2] != 16 {
		t.Fatalf("observation shape %v", obs.Shape)
	}
	// Never flapping must eventually crash (gravity).
	died := false
	for i := 0; i < 200; i++ {
		r, done := env.step(0)
		if done {
			died = true
			if r != -1 {
				t.Errorf("terminal reward = %g, want -1", r)
			}
			break
		}
	}
	if !died {
		t.Error("bird survived 200 steps without flapping")
	}
}

// TestParallelCorpusStructure verifies the synthetic corpus invariants.
func TestParallelCorpusStructure(t *testing.T) {
	d := newDevice(t)
	c := newParallelCorpus(d.RNG, 30, 100, 120, 4, 8)
	if len(c.Pairs) != 30 {
		t.Fatalf("pairs = %d", len(c.Pairs))
	}
	for _, p := range c.Pairs {
		src, dst := p[0], p[1]
		if len(src) != len(dst) {
			t.Fatal("src/dst length mismatch")
		}
		if src[len(src)-1] != 1 || dst[len(dst)-1] != 1 {
			t.Fatal("missing EOS")
		}
		for _, tok := range src {
			if tok < 1 || tok >= 100 {
				t.Fatalf("src token %d out of vocab", tok)
			}
		}
		for _, tok := range dst {
			if tok < 1 || tok >= 120 {
				t.Fatalf("dst token %d out of vocab", tok)
			}
		}
	}
}

// TestDigitBatchLabels verifies dataset generation.
func TestDigitBatchLabels(t *testing.T) {
	d := newDevice(t)
	imgs, labels := digitBatch(d.RNG, 10, 12, 4, true)
	if imgs.Shape[0] != 10 || imgs.Shape[2] != 12 {
		t.Fatalf("shape %v", imgs.Shape)
	}
	for _, l := range labels {
		if l < 0 || l >= 4 {
			t.Fatalf("label %d", l)
		}
	}
	for _, v := range imgs.Data {
		if v < 0 || v > 1 {
			t.Fatalf("pixel %g out of [0,1]", v)
		}
	}
}

// TestFaceBatchRange verifies image normalization to [-1, 1].
func TestFaceBatchRange(t *testing.T) {
	d := newDevice(t)
	f := faceBatch(d.RNG, 2, 16)
	if f.Shape[1] != 3 {
		t.Fatal("faces must be RGB")
	}
	for _, v := range f.Data {
		if v < -1 || v > 1 {
			t.Fatalf("pixel %g out of [-1,1]", v)
		}
	}
}
