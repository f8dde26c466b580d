package trace_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/profiler"
	"repro/internal/telemetry"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// zeroTrafficWorkload launches one kernel with no memory streams and no
// address trace: its LaunchResult.InstIntensity is +Inf, the value
// encoding/json refuses to marshal. Every JSON export boundary must clamp.
type zeroTrafficWorkload struct{}

func (zeroTrafficWorkload) Name() string             { return "zero-DRAM kernel" }
func (zeroTrafficWorkload) Abbr() string             { return "ZRT" }
func (zeroTrafficWorkload) Suite() workloads.Suite   { return workloads.Cactus }
func (zeroTrafficWorkload) Domain() workloads.Domain { return workloads.Scientific }

func (zeroTrafficWorkload) Run(s *profiler.Session) error {
	var mix isa.Mix
	mix.Add(isa.FP32, 1<<12)
	mix.Add(isa.Misc, 1<<8)
	_, err := s.Launch(gpu.KernelSpec{
		Name: "registers_only", Grid: gpu.D1(64), Block: gpu.D1(128), Mix: mix,
	})
	return err
}

// TestZeroTrafficKernelRoundTripsAllJSONEmitters — the regression test for
// non-finite metric values at export boundaries: a kernel with zero DRAM
// traffic must survive every JSON emitter in the repository (simulator
// trace, Chrome telemetry trace, profile cache) without a marshal error and
// without smuggling a non-finite value into the output.
func TestZeroTrafficKernelRoundTripsAllJSONEmitters(t *testing.T) {
	cfg := gpu.RTX3080()
	dev, err := gpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder()
	dev.SetTelemetry(rec, nil)
	sess := profiler.NewSessionWith(dev, profiler.SessionOptions{Tracer: rec, Label: "ZRT"})
	var w zeroTrafficWorkload
	if err := w.Run(sess); err != nil {
		t.Fatal(err)
	}

	// Precondition: the raw launch result really is non-finite.
	launches := sess.Launches()
	if len(launches) != 1 {
		t.Fatalf("recorded %d launches, want 1", len(launches))
	}
	if !math.IsInf(launches[0].InstIntensity, 1) {
		t.Fatalf("InstIntensity = %v, want +Inf (the hazard this test guards)", launches[0].InstIntensity)
	}

	// 1. Simulator trace (line-delimited JSON).
	var simTrace bytes.Buffer
	if err := trace.Export(&simTrace, w.Abbr(), cfg, sess); err != nil {
		t.Fatalf("trace.Export: %v", err)
	}
	if _, recs, err := trace.Read(&simTrace); err != nil {
		t.Fatalf("trace.Read: %v", err)
	} else if len(recs) != 1 {
		t.Fatalf("trace round-trip: %d launches, want 1", len(recs))
	}

	// 2. Chrome telemetry trace: must marshal, and the launch args must
	// carry the documented one-transaction clamp, not an infinity.
	var chrome bytes.Buffer
	if err := telemetry.WriteChrome(&chrome, rec.Events()); err != nil {
		t.Fatalf("telemetry.WriteChrome: %v", err)
	}
	parsed, err := testutil.ReadChrome(bytes.NewReader(chrome.Bytes()))
	if err != nil {
		t.Fatalf("testutil.ReadChrome: %v", err)
	}
	wantII := float64(launches[0].Mix.Total()) // insts per clamped 1 txn
	found := false
	for _, ev := range parsed.TraceEvents {
		if ev.Cat != "kernel" && ev.Cat != "launch" {
			continue
		}
		found = true
		ii, ok := ev.Args["inst_intensity"].(float64)
		if !ok || math.IsInf(ii, 0) || math.IsNaN(ii) {
			t.Fatalf("event %q inst_intensity = %v, want finite", ev.Name, ev.Args["inst_intensity"])
		}
		if ii != wantII {
			t.Errorf("event %q inst_intensity = %v, want %v (one-txn clamp)", ev.Name, ii, wantII)
		}
	}
	if !found {
		t.Fatal("chrome trace contains no launch events")
	}

	// 3. Profile cache entry (Profile -> JSON -> Profile).
	p, err := core.Characterize(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := core.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Store(p, cfg); err != nil {
		t.Fatalf("cache.Store: %v", err)
	}
	got, outcome := cache.Probe(w, cfg)
	if outcome != core.CacheHit {
		t.Fatalf("cache probe outcome = %v, want hit", outcome)
	}
	ii := got.Kernels[0].II()
	if math.IsInf(ii, 0) || math.IsNaN(ii) {
		t.Fatalf("cached kernel II = %v, want finite", ii)
	}
	if ii != wantII {
		t.Errorf("cached kernel II = %v, want %v (one-txn clamp)", ii, wantII)
	}
}
