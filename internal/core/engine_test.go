package core

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/gpu"
	"repro/internal/telemetry"
	"repro/internal/testutil"
	"repro/internal/workloads"
)

func engineWorkload(t *testing.T, abbr string) workloads.Workload {
	t.Helper()
	cat, err := DefaultCatalog()
	if err != nil {
		t.Fatal(err)
	}
	w, err := cat.Lookup(abbr)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestEngineLifecycle — construct, use, drain: after Shutdown every entry
// point fails with ErrEngineClosed, and Shutdown stays idempotent.
func TestEngineLifecycle(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	e := NewEngine(EngineOptions{Workers: 2})
	w := engineWorkload(t, "pb-sgemm")
	cfg := gpu.RTX3080()

	p, outcome, err := e.Characterize(context.Background(), cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if p == nil || len(p.Kernels) == 0 {
		t.Fatal("empty profile")
	}
	if outcome != CacheDisabled {
		t.Errorf("outcome = %v, want CacheDisabled (engine has no cache)", outcome)
	}

	if err := e.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := e.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	if _, _, err := e.Characterize(context.Background(), cfg, w); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("Characterize after Shutdown: %v, want ErrEngineClosed", err)
	}
	if _, err := e.Study(context.Background(), cfg, w); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("Study after Shutdown: %v, want ErrEngineClosed", err)
	}
}

// TestEngineCacheOutcomes — the engine reports how each profile was
// obtained: miss on the cold run, hit on the warm one.
func TestEngineCacheOutcomes(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(EngineOptions{Workers: 1, Cache: cache})
	defer func() { _ = e.Shutdown(context.Background()) }()
	w := engineWorkload(t, "pb-sgemm")

	_, outcome, err := e.Characterize(context.Background(), gpu.RTX3080(), w)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != CacheMiss {
		t.Errorf("cold outcome = %v, want CacheMiss", outcome)
	}
	_, outcome, err = e.Characterize(context.Background(), gpu.RTX3080(), w)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != CacheHit {
		t.Errorf("warm outcome = %v, want CacheHit", outcome)
	}
}

// TestEngineContextCancellation — a cancelled context fails slot
// acquisition instead of starting work, and leaves no goroutine behind.
func TestEngineContextCancellation(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	e := NewEngine(EngineOptions{Workers: 1})
	defer func() { _ = e.Shutdown(context.Background()) }()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.Characterize(ctx, gpu.RTX3080(), engineWorkload(t, "pb-sgemm")); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestEngineConcurrentStudiesDeterministic — many overlapping studies and
// characterizations on both device models, sharing one global slot pool,
// must each produce output byte-identical to the one-shot serial pipeline.
func TestEngineConcurrentStudiesDeterministic(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	ws := []workloads.Workload{
		engineWorkload(t, "pb-sgemm"),
		engineWorkload(t, "pb-spmv"),
		engineWorkload(t, "rd-nn"),
	}
	configs := []gpu.DeviceConfig{gpu.RTX3080(), gpu.GTX1080()}

	// Serial references from the one-shot path.
	want := make(map[string][]byte)
	for _, cfg := range configs {
		st, err := NewStudyWith(cfg, StudyOptions{Workers: 1}, ws...)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range st.Profiles {
			var buf bytes.Buffer
			if err := WriteProfileTable(&buf, p); err != nil {
				t.Fatal(err)
			}
			want[cfg.Name+"/"+p.Abbr()] = buf.Bytes()
		}
	}

	e := NewEngine(EngineOptions{Workers: 4})
	defer func() { _ = e.Shutdown(context.Background()) }()
	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		for _, cfg := range configs {
			wg.Add(1)
			go func(cfg gpu.DeviceConfig) {
				defer wg.Done()
				st, err := e.Study(context.Background(), cfg, ws...)
				if err != nil {
					t.Errorf("study on %s: %v", cfg.Name, err)
					return
				}
				for _, p := range st.Profiles {
					var buf bytes.Buffer
					if err := WriteProfileTable(&buf, p); err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(buf.Bytes(), want[cfg.Name+"/"+p.Abbr()]) {
						t.Errorf("%s on %s: concurrent engine output differs from serial one-shot run",
							p.Abbr(), cfg.Name)
					}
				}
			}(cfg)
			wg.Add(1)
			go func(cfg gpu.DeviceConfig, w workloads.Workload) {
				defer wg.Done()
				p, _, err := e.Characterize(context.Background(), cfg, w)
				if err != nil {
					t.Errorf("characterize on %s: %v", cfg.Name, err)
					return
				}
				var buf bytes.Buffer
				if err := WriteProfileTable(&buf, p); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(buf.Bytes(), want[cfg.Name+"/"+p.Abbr()]) {
					t.Errorf("%s on %s: engine Characterize output differs from serial one-shot run",
						p.Abbr(), cfg.Name)
				}
			}(cfg, ws[round%len(ws)])
		}
	}
	wg.Wait()
}

// TestEngineShutdownDrains — Shutdown must wait for in-flight work: every
// characterization started before Shutdown completes successfully.
func TestEngineShutdownDrains(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	e := NewEngine(EngineOptions{Workers: 2})
	w := engineWorkload(t, "pb-sgemm")
	const calls = 8
	results := make(chan error, calls)
	var started sync.WaitGroup
	for i := 0; i < calls; i++ {
		started.Add(1)
		go func() {
			started.Done() // begin() has not run yet, but Shutdown must tolerate both orders
			_, _, err := e.Characterize(context.Background(), gpu.RTX3080(), w)
			results <- err
		}()
	}
	started.Wait()
	if err := e.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < calls; i++ {
		// Each call either completed its work or was refused at the door —
		// never abandoned half-way.
		if err := <-results; err != nil && !errors.Is(err, ErrEngineClosed) {
			t.Errorf("call %d: %v", i, err)
		}
	}
}

// TestEngineStudyCountersAreTheStudys — a study that brings its own
// counters gets every launch and warp instruction it caused, and the
// engine's own counters get none of them.
func TestEngineStudyCountersAreTheStudys(t *testing.T) {
	engineCtr, studyCtr := telemetry.NewCounters(), telemetry.NewCounters()
	e := NewEngine(EngineOptions{Workers: 2, Counters: engineCtr})
	defer func() { _ = e.Shutdown(context.Background()) }()
	ws := cheapSet(4)
	st, err := e.StudyWith(context.Background(), gpu.RTX3080(), StudyOptions{Workers: 2, Counters: studyCtr}, ws...)
	if err != nil {
		t.Fatal(err)
	}
	var wantLaunches, wantInsts int64
	for _, w := range ws {
		wantLaunches += int64(w.(tinyWorkload).launches)
	}
	for _, p := range st.Profiles {
		wantInsts += int64(p.TotalWarpInsts)
	}
	if got := studyCtr.Get(telemetry.CtrLaunches); got != wantLaunches {
		t.Errorf("study counters: %d launches, want %d", got, wantLaunches)
	}
	if got := studyCtr.Get(telemetry.CtrWarpInstructions); got != wantInsts {
		t.Errorf("study counters: %d warp instructions, want %d", got, wantInsts)
	}
	if snap := engineCtr.Snapshot(); len(snap) != 0 {
		t.Errorf("engine counters touched by a study with its own: %+v", snap)
	}
}
