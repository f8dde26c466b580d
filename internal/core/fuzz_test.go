package core

import (
	"os"
	"testing"

	"repro/internal/gpu"
)

// FuzzProfileRoundTrip — cache-entry decoding must, for arbitrary file
// bytes, classify the entry as CacheHit or CacheCorrupt without panicking,
// and a hit must never smuggle in another workload's or schema's data. A
// genuine stored entry must still round-trip to an identical profile.
func FuzzProfileRoundTrip(f *testing.F) {
	cfg := gpu.RTX3080()
	cat, err := DefaultCatalog()
	if err != nil {
		f.Fatal(err)
	}
	w, err := cat.Lookup("pb-sgemm")
	if err != nil {
		f.Fatal(err)
	}

	// Seed with a real entry, mutations of it, and classic junk.
	seedDir := f.TempDir()
	seedCache, err := OpenCache(seedDir)
	if err != nil {
		f.Fatal(err)
	}
	p, err := Characterize(w, cfg)
	if err != nil {
		f.Fatal(err)
	}
	if err := seedCache.Store(p, cfg); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seedCache.path(w.Abbr(), cfg))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, e := range malformedEntries(f, p, cfg) {
		f.Add(e.data)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"schema":1,"abbr":"pb-sgemm"}`))
	f.Add([]byte(`{"schema":99,"abbr":"pb-sgemm","device":"RTX 3080"}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"schema":1,"abbr":"pb-sgemm","device":"RTX 3080","total_time":-1,"kernels":[{}]}`))

	// One cache directory per worker process: execs within a worker run
	// sequentially, and each one overwrites the entry before probing.
	cache, err := OpenCache(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(cache.path(w.Abbr(), cfg), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, outcome := cache.Probe(w, cfg)
		switch outcome {
		case CacheHit:
			if got == nil {
				t.Fatal("CacheHit with nil profile")
			}
			// A hit's identity fields were validated against the probe key;
			// anything else means the guard in Probe regressed.
			r := entryReader{b: data[len(entryMagic):]}
			schema, abbr, device := r.uvarint(), string(r.bytes()), string(r.bytes())
			if r.bad || string(data[:len(entryMagic)]) != entryMagic ||
				schema != CacheSchemaVersion || abbr != w.Abbr() || device != cfg.Name {
				t.Fatalf("CacheHit accepted foreign identity: schema %d, abbr %q, device %q", schema, abbr, device)
			}
			if got.TotalTime <= 0 || len(got.Kernels) == 0 {
				t.Fatalf("CacheHit with degenerate profile: time %v, %d kernels",
					got.TotalTime, len(got.Kernels))
			}
			// A loaded profile must survive a second store/probe cycle
			// unchanged — the byte-determinism contract of the cache.
			if err := cache.Store(got, cfg); err != nil {
				t.Fatal(err)
			}
			again, outcome2 := cache.Probe(w, cfg)
			if outcome2 != CacheHit {
				t.Fatalf("re-stored hit probed as %v", outcome2)
			}
			assertProfilesEqual(t, got, again)
		case CacheCorrupt:
			if got != nil {
				t.Fatal("CacheCorrupt returned a profile")
			}
		default:
			t.Fatalf("outcome = %v, want CacheHit or CacheCorrupt", outcome)
		}
	})
}

// assertProfilesEqual requires two profiles to match field-for-field,
// including every kernel's full metric vector.
func assertProfilesEqual(t *testing.T, a, b *Profile) {
	t.Helper()
	if a.TotalTime != b.TotalTime || a.TotalWarpInsts != b.TotalWarpInsts ||
		a.AggII != b.AggII || a.AggGIPS != b.AggGIPS || len(a.Kernels) != len(b.Kernels) {
		t.Fatalf("profiles differ: %+v vs %+v", a, b)
	}
	for i := range a.Kernels {
		ka, kb := a.Kernels[i], b.Kernels[i]
		if ka.Name != kb.Name || ka.Invocations != kb.Invocations ||
			ka.TimeShare != kb.TimeShare || ka.instCount != kb.instCount ||
			ka.Metrics != kb.Metrics {
			t.Fatalf("kernel %d differs: %+v vs %+v", i, ka, kb)
		}
	}
}
