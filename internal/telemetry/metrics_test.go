package telemetry

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketsAreCumulative — observations land in the first
// bucket whose bound covers them, snapshots report Prometheus-style
// cumulative counts, and values above the last bound appear only in the
// total count.
func TestHistogramBucketsAreCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(HistogramSpec{Name: "t.h", Buckets: []float64{1, 10, 100}})
	for _, v := range []float64{0.5, 1, 5, 50, 500, math.NaN()} {
		h.Observe(v)
	}
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("snapshot has %d histograms, want 1", len(s.Histograms))
	}
	hs := s.Histograms[0]
	if hs.Count != 5 {
		t.Errorf("count = %d, want 5 (NaN dropped)", hs.Count)
	}
	wantCum := []int64{2, 3, 4} // <=1: {0.5, 1}; <=10: +5; <=100: +50
	for i, b := range hs.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket le=%g count = %d, want %d", b.LE, b.Count, wantCum[i])
		}
	}
	if want := 0.5 + 1 + 5 + 50 + 500; hs.Sum != want {
		t.Errorf("sum = %g, want %g", hs.Sum, want)
	}
}

// TestRegistryHistogramIdempotent — respecifying a name returns the same
// histogram (first spec wins), and a nil registry hands out no-op
// histograms.
func TestRegistryHistogramIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram(HistWorkloadModeledSeconds)
	b := r.Histogram(HistogramSpec{Name: HistWorkloadModeledSeconds.Name, Buckets: []float64{1}})
	if a != b {
		t.Error("respecifying a histogram name created a second histogram")
	}
	var nilReg *Registry
	nilReg.Histogram(HistWorkloadModeledSeconds).Observe(1) // must not panic
	if s := nilReg.Snapshot(); len(s.Counters)+len(s.Histograms) != 0 {
		t.Errorf("nil registry snapshot non-empty: %+v", s)
	}
	var nilHist *Histogram
	nilHist.Observe(1) // must not panic
}

// TestRegistrySharesCountersState — a registry wrapping an existing
// Counters sees every counter written through either handle, the contract
// that keeps the -v counters dump and the /metrics endpoint one state.
func TestRegistrySharesCountersState(t *testing.T) {
	ctr := NewCounters()
	r := NewRegistryWith(ctr)
	ctr.Add(CtrLaunches, 3)
	r.Counters().Add(CtrLaunches, 2)
	if got := ctr.Get(CtrLaunches); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	s := r.Snapshot()
	if len(s.Counters) != 1 || s.Counters[0].Value != 5 {
		t.Errorf("snapshot counters = %+v", s.Counters)
	}
}

// TestWritePrometheusFormat — the exposition output carries TYPE lines,
// cumulative buckets with a +Inf terminal, _sum/_count, and sanitized
// cactus_-prefixed names.
func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counters().Add(CtrLaunches, 7)
	h := r.Histogram(HistogramSpec{Name: "workload.modeled_seconds", Help: "modeled seconds", Buckets: []float64{0.01, 0.1}})
	h.Observe(0.005)
	h.Observe(0.5)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE cactus_gpu_launches gauge\ncactus_gpu_launches 7\n",
		"# HELP cactus_workload_modeled_seconds modeled seconds",
		"# TYPE cactus_workload_modeled_seconds histogram",
		`cactus_workload_modeled_seconds_bucket{le="0.01"} 1`,
		`cactus_workload_modeled_seconds_bucket{le="0.1"} 1`,
		`cactus_workload_modeled_seconds_bucket{le="+Inf"} 2`,
		"cactus_workload_modeled_seconds_sum 0.505",
		"cactus_workload_modeled_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition output missing %q:\n%s", want, out)
		}
	}
}

// TestWritePrometheusCarriesSnapshot — the exposition is the one rendering
// of a snapshot (served at /metrics, written by -metrics FILE), so it must
// carry every counter and histogram of the snapshot, in the snapshot's
// sorted order, and render the same bytes twice.
func TestWritePrometheusCarriesSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counters().Add(CtrWorkloads, 42)
	r.Counters().Add(CtrLaunches, 7)
	r.Counters().Add(CtrWorkersBusy, -1)
	r.Histogram(HistWorkloadModeledSeconds).Observe(0.25)
	r.Histogram(HistKernelL1HitRate).Observe(0.8)
	r.Histogram(HistKernelL1HitRate).Observe(0.9)
	var a, b bytes.Buffer
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two renderings of an unchanged registry differ")
	}
	out := a.String()
	snap := r.Snapshot()
	if len(snap.Counters) != 3 || len(snap.Histograms) != 2 {
		t.Fatalf("snapshot = %+v, want 3 counters and 2 histograms", snap)
	}
	var want []string
	for _, cv := range snap.Counters {
		want = append(want, fmt.Sprintf("\n%s %d\n", promName(cv.Name), cv.Value))
	}
	for _, h := range snap.Histograms {
		want = append(want, fmt.Sprintf("\n%s_count %d\n", promName(h.Name), h.Count))
	}
	last := -1
	for _, w := range want {
		idx := strings.Index(out, w)
		if idx < 0 {
			t.Errorf("exposition missing %q:\n%s", w, out)
			continue
		}
		if idx < last {
			t.Errorf("exposition out of snapshot order at %q:\n%s", w, out)
		}
		last = idx
	}
}

// TestRegistryConcurrentObserve — concurrent histogram observations and
// counter adds from many goroutines must account exactly (run under -race
// in CI).
func TestRegistryConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := r.Histogram(HistWorkloadModeledSeconds)
			for i := 0; i < perWorker; i++ {
				h.Observe(0.01)
				r.Counters().Add(CtrLaunches, 1)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters[0].Value != workers*perWorker {
		t.Errorf("counter = %d, want %d", s.Counters[0].Value, workers*perWorker)
	}
	if s.Histograms[0].Count != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", s.Histograms[0].Count, workers*perWorker)
	}
}

// TestPromName — metric-name sanitization into the Prometheus identifier
// space.
func TestPromName(t *testing.T) {
	cases := map[string]string{
		"gpu.launches":             "cactus_gpu_launches",
		"workload.GMS.modeled_ns":  "cactus_workload_GMS_modeled_ns",
		"weird-name with spaces!?": "cactus_weird_name_with_spaces__",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
