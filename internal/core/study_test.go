package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/profiler"
	"repro/internal/workloads"
)

// TestParallelStudyMatchesSerial characterizes the 32 baseline workloads
// serially and on 8 workers and requires identical profile order plus
// byte-identical rendered output for the figures that consume this study —
// the tentpole's determinism contract.
func TestParallelStudyMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("characterizes the baseline workloads twice")
	}
	cfg := gpu.RTX3080()
	ws := BaselineWorkloads()
	serial, err := NewStudy(cfg, ws...)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewStudyWith(cfg, StudyOptions{Workers: 8}, ws...)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Profiles) != len(parallel.Profiles) {
		t.Fatalf("profile counts differ: serial %d, parallel %d",
			len(serial.Profiles), len(parallel.Profiles))
	}
	for i := range serial.Profiles {
		if s, p := serial.Profiles[i].Abbr(), parallel.Profiles[i].Abbr(); s != p {
			t.Fatalf("profile %d: order differs: serial %s, parallel %s", i, s, p)
		}
	}
	renderers := map[string]func(*Study, *bytes.Buffer) error{
		"figure2": func(st *Study, b *bytes.Buffer) error { return Figure2(st, b) },
		"figure4": func(st *Study, b *bytes.Buffer) error { return Figure4(st, b) },
		"table1":  func(st *Study, b *bytes.Buffer) error { return Table1(st, b) },
	}
	for name, render := range renderers {
		var a, b bytes.Buffer
		if err := render(serial, &a); err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		if err := render(parallel, &b); err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		if a.Len() == 0 {
			t.Fatalf("%s rendered no output", name)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: parallel output differs from serial", name)
		}
	}
}

// failingWorkload fails its run after recording that it started.
type failingWorkload struct {
	abbr   string
	starts *atomic.Int32
}

func (f failingWorkload) Name() string             { return f.abbr }
func (f failingWorkload) Abbr() string             { return f.abbr }
func (f failingWorkload) Suite() workloads.Suite   { return workloads.Cactus }
func (f failingWorkload) Domain() workloads.Domain { return workloads.Scientific }
func (f failingWorkload) Run(*profiler.Session) error {
	f.starts.Add(1)
	return fmt.Errorf("boom in %s", f.abbr)
}

// TestParallelStudyError — a failing workload must fail the whole study,
// stop feeding further work, and not panic or deadlock the pool.
func TestParallelStudyError(t *testing.T) {
	var starts atomic.Int32
	ws := make([]workloads.Workload, 16)
	for i := range ws {
		ws[i] = failingWorkload{abbr: fmt.Sprintf("F%02d", i), starts: &starts}
	}
	_, err := NewStudyWith(gpu.RTX3080(), StudyOptions{Workers: 4}, ws...)
	if err == nil {
		t.Fatal("expected the study to fail")
	}
	if n := starts.Load(); n == 0 || n == 16 {
		t.Logf("starts=%d (early-exit is best-effort)", n)
	}
}

// raggedWorkload submits, as the real emitters do, a kernel whose
// 100-thread blocks are not a warp multiple.
type raggedWorkload struct{}

func (raggedWorkload) Name() string             { return "ragged" }
func (raggedWorkload) Abbr() string             { return "RAG" }
func (raggedWorkload) Suite() workloads.Suite   { return workloads.Cactus }
func (raggedWorkload) Domain() workloads.Domain { return workloads.Scientific }
func (raggedWorkload) Run(s *profiler.Session) error {
	var mix isa.Mix
	mix.Add(isa.FP32, 1<<10)
	s.Submit(gpu.KernelSpec{Name: "ragged", Grid: gpu.D1(8), Block: gpu.D1(100), Mix: mix})
	return nil
}

// TestStudyFailsOnCheckedLaunch — a launch that breaks a spec rule fails
// the study with an error naming the workload, the kernel and the rule,
// even though the workload itself returned no error.
func TestStudyFailsOnCheckedLaunch(t *testing.T) {
	ws := append(BaselineWorkloads()[:1], raggedWorkload{})
	_, err := NewStudyWith(gpu.RTX3080(), StudyOptions{Workers: 2}, ws...)
	if err == nil {
		t.Fatal("expected the study to fail")
	}
	for _, want := range []string{"RAG", "kernel ragged", "block-warp"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestWorkerDefaults — Workers <= 0 must still characterize everything and
// preserve order.
func TestWorkerDefaults(t *testing.T) {
	ws := BaselineWorkloads()[:4]
	st, err := NewStudyWith(gpu.RTX3080(), StudyOptions{Workers: -1}, ws...)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Profiles) != len(ws) {
		t.Fatalf("got %d profiles, want %d", len(st.Profiles), len(ws))
	}
	for i, w := range ws {
		if st.Profiles[i].Abbr() != w.Abbr() {
			t.Errorf("profile %d is %s, want %s", i, st.Profiles[i].Abbr(), w.Abbr())
		}
	}
}
