package telemetry_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/memsim"
	"repro/internal/profiler"
	"repro/internal/telemetry"
	"repro/internal/testutil"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedWorkloadTrace runs a fixed synthetic workload — three launches of
// two kernels with declarative memory streams — and returns the
// modeled-GPU-time track serialized as a Chrome trace. The modeled track
// depends only on the device model and the specs, so its bytes are a
// stable fingerprint of both.
func fixedWorkloadTrace(t *testing.T) []byte {
	t.Helper()
	dev, err := gpu.New(gpu.RTX3080())
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder()
	dev.SetTelemetry(rec, nil)
	sess := profiler.NewSessionWith(dev, profiler.SessionOptions{
		Tracer: rec, Label: "FIX",
	})

	var compute isa.Mix
	compute.Add(isa.FP32, 1<<16)
	compute.Add(isa.LoadGlobal, 1<<12)
	var mem isa.Mix
	mem.Add(isa.LoadGlobal, 1<<14)
	mem.Add(isa.StoreGlobal, 1<<13)
	mem.Add(isa.INT, 1<<12)

	const footprint = 1 << 22
	stream := memsim.Stream{
		Name: "s", FootprintBytes: footprint, AccessBytes: footprint,
		ElemBytes: 4, Pattern: memsim.Coalesced, Partitioned: true,
	}
	for i := 0; i < 2; i++ {
		sess.Submit(gpu.KernelSpec{
			Name: "fixed_compute", Grid: gpu.D1(512), Block: gpu.D1(256),
			Mix: compute, Streams: []memsim.Stream{stream},
		})
	}
	sess.Submit(gpu.KernelSpec{
		Name: "fixed_memory", Grid: gpu.D1(1024), Block: gpu.D1(128),
		Mix: mem, Streams: []memsim.Stream{stream},
	})
	if err := sess.Err(); err != nil {
		t.Fatal(err)
	}

	// The modeled track alone is the deterministic subset the golden pins.
	var modeled []telemetry.Event
	for _, ev := range rec.Events() {
		if ev.Track == telemetry.TrackModeled {
			modeled = append(modeled, ev)
		}
	}
	var buf bytes.Buffer
	if err := telemetry.WriteChrome(&buf, modeled); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenModeledTrace — a fixed workload must produce a byte-identical
// Chrome trace on the modeled-time track, both across runs in this process
// and against the checked-in golden file. Regenerate with:
//
//	go test ./internal/telemetry -run TestGoldenModeledTrace -update
func TestGoldenModeledTrace(t *testing.T) {
	got := fixedWorkloadTrace(t)
	if again := fixedWorkloadTrace(t); !bytes.Equal(got, again) {
		t.Fatal("two identical runs produced different modeled-track traces")
	}

	golden := filepath.Join("testdata", "modeled_trace.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("modeled-track trace differs from %s (device model change? regenerate with -update)\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}

	// The trace must parse and contain one complete event per launch.
	tr, err := testutil.ReadChrome(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" && ev.Cat == "kernel" {
			spans++
		}
	}
	if spans != 3 {
		t.Errorf("trace has %d kernel spans, want 3", spans)
	}
}
