package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/telemetry"
)

// deterministicMetrics strips the order- and clock-sensitive parts out of
// a registry snapshot: the wall_seconds histogram and every *.wall_ns
// counter vary run to run, and histogram Sums accumulate float64 in
// observation order, so parallel runs drift from serial by association
// error (the Sums are compared separately, with a tolerance). Everything
// kept is a pure function of the modeled study.
func deterministicMetrics(s telemetry.MetricsSnapshot) telemetry.MetricsSnapshot {
	var out telemetry.MetricsSnapshot
	for _, c := range s.Counters {
		if strings.HasSuffix(c.Name, ".wall_ns") || c.Name == telemetry.CtrWorkersBusy {
			continue
		}
		out.Counters = append(out.Counters, c)
	}
	for _, h := range s.Histograms {
		if h.Name == telemetry.HistWorkloadWallSeconds.Name {
			continue
		}
		h.Sum = 0
		out.Histograms = append(out.Histograms, h)
	}
	return out
}

// histogramSums returns name → Sum for the modeled-value histograms.
func histogramSums(s telemetry.MetricsSnapshot) map[string]float64 {
	sums := map[string]float64{}
	for _, h := range s.Histograms {
		if h.Name == telemetry.HistWorkloadWallSeconds.Name {
			continue
		}
		sums[h.Name] = h.Sum
	}
	return sums
}

// TestParallelObservabilityMatchesSerial — the satellite acceptance test,
// exercised under -race in CI: an 8-worker study driving the registry and
// the attribution tree concurrently must produce exactly the serial run's
// attribution tree and the serial run's deterministic metrics.
func TestParallelObservabilityMatchesSerial(t *testing.T) {
	cfg := gpu.RTX3080()
	ws := cheapSet(12)
	study := func(workers int) (*Study, telemetry.MetricsSnapshot) {
		reg := telemetry.NewRegistry()
		st, err := NewStudyWith(cfg, StudyOptions{
			Workers:  workers,
			Counters: reg.Counters(),
			Progress: ObserveMetrics(reg),
		}, ws...)
		if err != nil {
			t.Fatal(err)
		}
		return st, reg.Snapshot()
	}
	serialStudy, serialSnap := study(1)
	parallelStudy, parallelSnap := study(8)

	serialTree := Attribute(serialStudy)
	parallelTree := Attribute(parallelStudy)
	if v := telemetry.CheckAttribution(parallelTree, 0); len(v) != 0 {
		t.Fatalf("parallel attribution identity violated: %v", v)
	}
	if !reflect.DeepEqual(serialTree, parallelTree) {
		t.Error("8-worker attribution tree differs from the serial tree")
	}
	if !reflect.DeepEqual(deterministicMetrics(serialSnap), deterministicMetrics(parallelSnap)) {
		t.Errorf("8-worker deterministic metrics differ from serial:\nserial:   %+v\nparallel: %+v",
			deterministicMetrics(serialSnap), deterministicMetrics(parallelSnap))
	}
	parallelSums := histogramSums(parallelSnap)
	for name, want := range histogramSums(serialSnap) {
		got := parallelSums[name]
		if diff := math.Abs(got - want); diff > 1e-9*math.Max(math.Abs(want), 1) {
			t.Errorf("%s sum = %g parallel vs %g serial (beyond association error)", name, got, want)
		}
	}
}

// TestStudyMetricsObservation — a study whose Progress is ObserveMetrics
// observes one modeled-seconds and one wall-seconds sample per workload
// and one L1/L2 sample per kernel profile.
func TestStudyMetricsObservation(t *testing.T) {
	ws := cheapSet(5)
	reg := telemetry.NewRegistry()
	st, err := NewStudyWith(gpu.RTX3080(), StudyOptions{Workers: 2, Progress: ObserveMetrics(reg)}, ws...)
	if err != nil {
		t.Fatal(err)
	}
	var kernels int64
	for _, p := range st.Profiles {
		kernels += int64(len(p.Kernels))
	}
	byName := map[string]telemetry.HistogramSnapshot{}
	for _, h := range reg.Snapshot().Histograms {
		byName[h.Name] = h
	}
	for name, want := range map[string]int64{
		telemetry.HistWorkloadModeledSeconds.Name: int64(len(ws)),
		telemetry.HistWorkloadWallSeconds.Name:    int64(len(ws)),
		telemetry.HistKernelL1HitRate.Name:        kernels,
		telemetry.HistKernelL2HitRate.Name:        kernels,
	} {
		h, ok := byName[name]
		if !ok {
			t.Errorf("histogram %q never observed", name)
			continue
		}
		if h.Count != want {
			t.Errorf("%s count = %d, want %d", name, h.Count, want)
		}
	}
}
