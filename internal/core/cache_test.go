package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/gpu"
)

// cheapWorkload returns a fast-to-simulate baseline workload for cache
// tests.
func cheapWorkload(t *testing.T) *Profile {
	t.Helper()
	p, err := Characterize(BaselineWorkloads()[0], gpu.RTX3080())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCacheRoundTrip — store a profile, load it back, and require the
// reconstruction to be deep-equal: every metric vector, time share, and
// instruction count must survive the JSON round trip bit-for-bit so cached
// studies render byte-identical figures.
func TestCacheRoundTrip(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpu.RTX3080()
	p := cheapWorkload(t)
	if err := cache.Store(p, cfg); err != nil {
		t.Fatal(err)
	}
	got, ok := cache.Load(p.Workload, cfg)
	if !ok {
		t.Fatal("stored profile missed on load")
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("cache round trip altered the profile:\nstored %+v\nloaded %+v", p, got)
	}
	for i, k := range p.Kernels {
		if k.Metrics != got.Kernels[i].Metrics {
			t.Errorf("kernel %s: metric vector changed across round trip", k.Name)
		}
	}
}

// TestCacheMisses — entries must not leak across devices, and corrupt
// entries must read as misses, not errors.
func TestCacheMisses(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpu.RTX3080()
	p := cheapWorkload(t)

	if _, ok := cache.Load(p.Workload, cfg); ok {
		t.Error("empty cache reported a hit")
	}
	if err := cache.Store(p, cfg); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Load(p.Workload, gpu.GTX1080()); ok {
		t.Error("RTX 3080 entry served for the GTX 1080")
	}
	// A device-config tweak must change the key even when the name is kept.
	tweaked := cfg
	tweaked.L2Bytes *= 2
	if _, ok := cache.Load(p.Workload, tweaked); ok {
		t.Error("entry served despite a changed device configuration")
	}

	// Corrupt every entry in place: loads must degrade to misses.
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("expected cache entries in %s (err=%v)", dir, err)
	}
	for _, f := range files {
		if err := os.WriteFile(f, []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := cache.Load(p.Workload, cfg); ok {
		t.Error("corrupt entry reported a hit")
	}
}

// TestStudyUsesCache — a second study over a warm cache must reproduce the
// first study's profiles without re-simulation (observable via DeepEqual on
// the profile data; the Workload field is the caller's own value).
func TestStudyUsesCache(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpu.RTX3080()
	ws := BaselineWorkloads()[:3]
	opts := StudyOptions{Workers: 2, Cache: cache}
	cold, err := NewStudyWith(cfg, opts, ws...)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NewStudyWith(cfg, opts, ws...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.Profiles, warm.Profiles) {
		t.Error("warm-cache study differs from the cold study")
	}
}

// TestCharacterizeWithCacheOutcomes — the single-workload path reports how
// each profile was obtained: disabled without a cache, then a miss on the
// cold run and a hit on the warm one, with the same profile either way.
func TestCharacterizeWithCacheOutcomes(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, cfg := BaselineWorkloads()[0], gpu.RTX3080()
	for _, run := range []struct {
		name string
		opts StudyOptions
		want CacheOutcome
	}{
		{"no cache", StudyOptions{}, CacheDisabled},
		{"cold", StudyOptions{Cache: cache}, CacheMiss},
		{"warm", StudyOptions{Cache: cache}, CacheHit},
	} {
		p, outcome, err := CharacterizeWith(w, cfg, run.opts, 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if outcome != run.want {
			t.Errorf("%s: outcome = %v, want %v", run.name, outcome, run.want)
		}
		if want := cheapWorkload(t); !reflect.DeepEqual(p.Kernels, want.Kernels) {
			t.Errorf("%s: profile differs from Characterize's", run.name)
		}
	}
}
