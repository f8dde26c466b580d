package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/profiler"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// tinyWorkload launches `launches` kernels of a trivial mix — fast enough
// to run dozens of times in a unit test.
type tinyWorkload struct {
	abbr     string
	launches int
}

func (c tinyWorkload) Name() string             { return c.abbr }
func (c tinyWorkload) Abbr() string             { return c.abbr }
func (c tinyWorkload) Suite() workloads.Suite   { return workloads.Cactus }
func (c tinyWorkload) Domain() workloads.Domain { return workloads.Scientific }

func (c tinyWorkload) Run(s *profiler.Session) error {
	var mix isa.Mix
	mix.Add(isa.FP32, 1<<10)
	mix.Add(isa.INT, 1<<8)
	for i := 0; i < c.launches; i++ {
		if _, err := s.Launch(gpu.KernelSpec{
			Name: fmt.Sprintf("%s_k%d", c.abbr, i%2),
			Grid: gpu.D1(32), Block: gpu.D1(128), Mix: mix,
		}); err != nil {
			return err
		}
	}
	return nil
}

func cheapSet(n int) []workloads.Workload {
	ws := make([]workloads.Workload, n)
	for i := range ws {
		ws[i] = tinyWorkload{abbr: fmt.Sprintf("CW%02d", i), launches: 2 + i%3}
	}
	return ws
}

// TestStudyCounterAccounting — the acceptance criterion: over a cold run
// then a warm run, cache hits plus misses must equal the number of
// workloads characterized, launches must match the sessions' records, and
// per-workload modeled/wall counters must exist.
func TestStudyCounterAccounting(t *testing.T) {
	cfg := gpu.RTX3080()
	ws := cheapSet(8)
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wantLaunches := 0
	for _, w := range ws {
		wantLaunches += w.(tinyWorkload).launches
	}

	for _, run := range []struct {
		name                string
		wantHits, wantMiss  int64
		wantLaunchesCounted int64
	}{
		{"cold", 0, 8, int64(wantLaunches)},
		{"warm", 8, 0, 0}, // cache hits never touch the device
	} {
		ctr := telemetry.NewCounters()
		st, err := NewStudyWith(cfg, StudyOptions{
			Workers: 4, Cache: cache, Counters: ctr,
		}, ws...)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if len(st.Profiles) != len(ws) {
			t.Fatalf("%s: %d profiles, want %d", run.name, len(st.Profiles), len(ws))
		}
		hits := ctr.Get(telemetry.CtrCacheHits)
		misses := ctr.Get(telemetry.CtrCacheMisses)
		total := ctr.Get(telemetry.CtrWorkloads)
		if hits != run.wantHits || misses != run.wantMiss {
			t.Errorf("%s: hits=%d misses=%d, want %d/%d", run.name, hits, misses, run.wantHits, run.wantMiss)
		}
		if hits+misses != total {
			t.Errorf("%s: hits(%d)+misses(%d) != workloads characterized (%d)", run.name, hits, misses, total)
		}
		if got := ctr.Get(telemetry.CtrLaunches); got != run.wantLaunchesCounted {
			t.Errorf("%s: launches counter = %d, want %d", run.name, got, run.wantLaunchesCounted)
		}
		if run.name == "cold" {
			for _, w := range ws {
				if ctr.Get(telemetry.WorkloadModeledNs(w.Abbr())) <= 0 {
					t.Errorf("cold: no modeled-time counter for %s", w.Abbr())
				}
				if ctr.Get(telemetry.WorkloadWallNs(w.Abbr())) <= 0 {
					t.Errorf("cold: no wall-time counter for %s", w.Abbr())
				}
			}
		}
		if gauge := ctr.Get(telemetry.CtrWorkersBusy); gauge != 0 {
			t.Errorf("%s: workers-busy gauge = %d after study, want 0", run.name, gauge)
		}
	}
}

// TestStudyProgressAttribution — Progress must fire once per workload with
// the right cache outcome, from cold (miss) to warm (hit) to no-cache
// (disabled).
func TestStudyProgressAttribution(t *testing.T) {
	cfg := gpu.RTX3080()
	ws := cheapSet(5)
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	collect := func(opts StudyOptions) map[string]WorkloadProgress {
		var mu sync.Mutex
		got := map[string]WorkloadProgress{}
		opts.Progress = func(p WorkloadProgress) {
			mu.Lock()
			got[p.Profile.Abbr()] = p
			mu.Unlock()
		}
		if _, err := NewStudyWith(cfg, opts, ws...); err != nil {
			t.Fatal(err)
		}
		return got
	}
	for _, run := range []struct {
		name string
		opts StudyOptions
		want CacheOutcome
	}{
		{"cold", StudyOptions{Workers: 2, Cache: cache}, CacheMiss},
		{"warm", StudyOptions{Workers: 2, Cache: cache}, CacheHit},
		{"no-cache", StudyOptions{Workers: 2}, CacheDisabled},
	} {
		got := collect(run.opts)
		if len(got) != len(ws) {
			t.Fatalf("%s: progress fired for %d workloads, want %d", run.name, len(got), len(ws))
		}
		for _, w := range ws {
			p, ok := got[w.Abbr()]
			if !ok {
				t.Fatalf("%s: no progress for %s", run.name, w.Abbr())
			}
			if p.Cache != run.want {
				t.Errorf("%s: %s cache outcome %v, want %v", run.name, w.Abbr(), p.Cache, run.want)
			}
			if len(p.Profile.Kernels) <= 0 || p.Profile.TotalTime <= 0 {
				t.Errorf("%s: %s progress incomplete: %+v", run.name, w.Abbr(), p)
			}
			if p.StoreErr != nil {
				t.Errorf("%s: %s unexpected store error: %v", run.name, w.Abbr(), p.StoreErr)
			}
		}
	}
}

// TestCorruptCacheEntriesAreCountedNotSwallowed — a garbage entry must be
// re-simulated (as before) but now leaves a trail: the corrupt counter and
// a CacheCorrupt progress outcome.
func TestCorruptCacheEntriesAreCountedNotSwallowed(t *testing.T) {
	cfg := gpu.RTX3080()
	ws := cheapSet(3)
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStudyWith(cfg, StudyOptions{Workers: 1, Cache: cache}, ws...); err != nil {
		t.Fatal(err)
	}
	// Corrupt every entry on disk.
	entries, err := filepath.Glob(filepath.Join(dir, "*"+entryExt))
	if err != nil || len(entries) != len(ws) {
		t.Fatalf("found %d cache entries (err=%v), want %d", len(entries), err, len(ws))
	}
	for _, e := range entries {
		if err := os.WriteFile(e, []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ctr := telemetry.NewCounters()
	var mu sync.Mutex
	outcomes := map[string]CacheOutcome{}
	_, err = NewStudyWith(cfg, StudyOptions{
		Workers: 2, Cache: cache, Counters: ctr,
		Progress: func(p WorkloadProgress) {
			mu.Lock()
			outcomes[p.Profile.Abbr()] = p.Cache
			mu.Unlock()
		},
	}, ws...)
	if err != nil {
		t.Fatal(err)
	}
	if got := ctr.Get(telemetry.CtrCacheCorrupt); got != int64(len(ws)) {
		t.Errorf("corrupt counter = %d, want %d", got, len(ws))
	}
	// Corrupt entries are still misses for hit/miss accounting.
	if got := ctr.Get(telemetry.CtrCacheMisses); got != int64(len(ws)) {
		t.Errorf("miss counter = %d, want %d", got, len(ws))
	}
	for abbr, o := range outcomes {
		if o != CacheCorrupt {
			t.Errorf("%s outcome = %v, want corrupt", abbr, o)
		}
	}
	// The corrupted entries must have been overwritten with good ones.
	for _, w := range ws {
		if _, outcome := cache.Probe(w, cfg); outcome != CacheHit {
			t.Errorf("%s not repaired: outcome %v", w.Abbr(), outcome)
		}
	}
}

// TestCacheStoreFailureDoesNotFailStudy — store errors used to abort the
// whole study; now the study completes, the error is counted, and Progress
// reports it.
func TestCacheStoreFailureDoesNotFailStudy(t *testing.T) {
	cfg := gpu.RTX3080()
	ws := cheapSet(3)
	dir := filepath.Join(t.TempDir(), "cache")
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Remove the directory out from under the cache: probes miss
	// (ErrNotExist) and every store fails at temp-file creation.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	ctr := telemetry.NewCounters()
	var mu sync.Mutex
	storeErrs := 0
	st, err := NewStudyWith(cfg, StudyOptions{
		Workers: 2, Cache: cache, Counters: ctr,
		Progress: func(p WorkloadProgress) {
			mu.Lock()
			if p.StoreErr != nil {
				storeErrs++
			}
			mu.Unlock()
		},
	}, ws...)
	if err != nil {
		t.Fatalf("study failed on store errors: %v", err)
	}
	if len(st.Profiles) != len(ws) {
		t.Fatalf("got %d profiles, want %d", len(st.Profiles), len(ws))
	}
	if got := ctr.Get(telemetry.CtrCacheStoreErrors); got != int64(len(ws)) {
		t.Errorf("store-error counter = %d, want %d", got, len(ws))
	}
	if storeErrs != len(ws) {
		t.Errorf("progress reported %d store errors, want %d", storeErrs, len(ws))
	}
}

// TestStudyTraceEvents — a traced study must record one modeled kernel
// span per launch on the right lane, one host-track thread name per
// worker, cache probe instants, and characterize spans; and the modeled
// track must serialize byte-identically between a 1-worker and a 4-worker
// run (the determinism contract extended to telemetry). Run under -race
// this also exercises concurrent sink writes from the workers.
func TestStudyTraceEvents(t *testing.T) {
	cfg := gpu.RTX3080()
	ws := cheapSet(6)
	wantLaunches := 0
	for _, w := range ws {
		wantLaunches += w.(tinyWorkload).launches
	}

	chrome := func(workers int) ([]byte, []telemetry.Event) {
		rec := telemetry.NewRecorder()
		if _, err := NewStudyWith(cfg, StudyOptions{
			Workers: workers, Tracer: rec,
		}, ws...); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := telemetry.WriteChrome(&buf, rec.Events(), telemetry.TrackModeled); err != nil {
			t.Fatal(err)
		}
		// One host-track lane name per worker, whatever the worker count.
		names := map[int][]string{}
		for _, ev := range rec.Events() {
			if ev.Track == telemetry.TrackHost && ev.Phase == telemetry.PhaseMeta {
				names[ev.TID] = append(names[ev.TID], fmt.Sprint(ev.Args["name"]))
			}
		}
		if len(names) != workers {
			t.Errorf("%d workers: host-track thread names on %d lanes, want %d: %v", workers, len(names), workers, names)
		}
		for worker := 0; worker < workers; worker++ {
			if want := []string{fmt.Sprintf("worker %d", worker)}; !reflect.DeepEqual(names[worker], want) {
				t.Errorf("%d workers: lane %d thread names %q, want %q", workers, worker, names[worker], want)
			}
		}
		return buf.Bytes(), rec.Events()
	}

	serialBytes, _ := chrome(1)
	parallelBytes, events := chrome(4)
	if !bytes.Equal(serialBytes, parallelBytes) {
		t.Error("modeled-track trace differs between serial and 4-worker runs")
	}

	kernelSpans := 0
	lanes := map[int]bool{}
	characterize := 0
	for _, ev := range events {
		switch {
		case ev.Track == telemetry.TrackModeled && ev.Phase == telemetry.PhaseSpan && ev.Cat == "kernel":
			kernelSpans++
			lanes[ev.TID] = true
		case ev.Track == telemetry.TrackHost && ev.Phase == telemetry.PhaseSpan && ev.Cat == "characterize":
			characterize++
		}
	}
	if kernelSpans != wantLaunches {
		t.Errorf("modeled kernel spans = %d, want %d", kernelSpans, wantLaunches)
	}
	if len(lanes) != len(ws) {
		t.Errorf("modeled lanes = %d, want one per workload (%d)", len(lanes), len(ws))
	}
	if characterize != len(ws) {
		t.Errorf("characterize spans = %d, want %d", characterize, len(ws))
	}
}
