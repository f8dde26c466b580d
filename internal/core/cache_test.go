package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/gpu"
	"repro/internal/profiler"
	"repro/internal/telemetry"
	"repro/internal/units"
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
// instruction count must survive the entry record bit-for-bit so cached
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
	got, outcome := cache.Probe(p.Workload, cfg)
	if outcome != CacheHit {
		t.Fatalf("stored profile probed as %v", outcome)
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
// entries must read as CacheCorrupt, not as hits or errors.
func TestCacheMisses(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpu.RTX3080()
	p := cheapWorkload(t)

	if _, outcome := cache.Probe(p.Workload, cfg); outcome != CacheMiss {
		t.Errorf("empty cache probed as %v, want miss", outcome)
	}
	if err := cache.Store(p, cfg); err != nil {
		t.Fatal(err)
	}
	if _, outcome := cache.Probe(p.Workload, gpu.GTX1080()); outcome != CacheMiss {
		t.Errorf("RTX 3080 entry probed as %v for the GTX 1080, want miss", outcome)
	}
	// A device-config tweak must change the key even when the name is kept.
	tweaked := cfg
	tweaked.L2Bytes *= 2
	if _, outcome := cache.Probe(p.Workload, tweaked); outcome != CacheMiss {
		t.Errorf("entry probed as %v despite a changed device configuration, want miss", outcome)
	}

	// Corrupt every entry in place: probes must report corruption.
	files, err := filepath.Glob(filepath.Join(dir, "*"+entryExt))
	if err != nil || len(files) == 0 {
		t.Fatalf("expected cache entries in %s (err=%v)", dir, err)
	}
	for _, f := range files {
		if err := os.WriteFile(f, []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, outcome := cache.Probe(p.Workload, cfg); outcome != CacheCorrupt {
		t.Errorf("corrupt entry probed as %v, want corrupt", outcome)
	}
}

// TestCacheDetectsFlippedMetricBit — one flipped bit inside a stored
// metric still leaves a well-formed number, which no parse can catch; the
// entry's checksum must. With the checksum recomputed, the same bytes
// load and carry the changed metric, which shows the flip landed in it.
func TestCacheDetectsFlippedMetricBit(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpu.RTX3080()
	p := cheapWorkload(t)
	if err := cache.Store(p, cfg); err != nil {
		t.Fatal(err)
	}
	path := cache.path(p.Abbr(), cfg)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m := profiler.InstIntensity
	k := p.Kernels[0]
	at := len(entryHeader(p, cfg.Name)) + len(binary.AppendUvarint(nil, uint64(len(p.Kernels)))) + len(appendString(nil, k.Name)) +
		len(binary.AppendVarint(nil, int64(k.Invocations))) + 2*8 + 8*int(m)
	want := k.Metrics[m]
	if math.Float64frombits(binary.LittleEndian.Uint64(data[at:])) != want {
		t.Fatalf("metric %s = %v is not at byte %d of the entry", m, want, at)
	}
	data[at+2] ^= 0x10 // a low mantissa bit: the value stays finite and plausible
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, outcome := cache.Probe(p.Workload, cfg); outcome != CacheCorrupt {
		t.Fatalf("entry with a flipped metric bit probed as %v, want corrupt", outcome)
	}

	if err := os.WriteFile(path, seal(data[:len(data)-4]), 0o644); err != nil {
		t.Fatal(err)
	}
	got, outcome := cache.Probe(p.Workload, cfg)
	if outcome != CacheHit {
		t.Fatalf("resealed entry probed as %v, want hit", outcome)
	}
	if v := got.Kernels[0].Metrics[m]; v == want {
		t.Fatalf("flipped bit did not change %s (%v)", m, v)
	}
}

// TestCacheStoreRefusesNonFinite — a NaN or an infinity in a profile can
// only be a fault, so Store refuses it: the characterization reports a
// store error, the store-error counter rises, and no entry is written.
func TestCacheStoreRefusesNonFinite(t *testing.T) {
	cfg := gpu.RTX3080()
	for _, tc := range []struct {
		name  string
		spoil func(p *Profile)
	}{
		{"NaN metric", func(p *Profile) { p.Kernels[0].Metrics[profiler.GIPS] = math.NaN() }},
		{"+Inf total time", func(p *Profile) { p.TotalTime = units.Seconds(math.Inf(1)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cache, err := OpenCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			p := cheapWorkload(t)
			tc.spoil(p)
			ctr := telemetry.NewCounters()
			opts := StudyOptions{Cache: cache, Counters: ctr}
			if err := storeProfile(p, cfg, opts, telemetry.Or(nil), 0); err == nil {
				t.Fatal("non-finite profile stored without error")
			}
			if got := ctr.Get(telemetry.CtrCacheStoreErrors); got != 1 {
				t.Errorf("store-error counter = %d, want 1", got)
			}
			if files, err := os.ReadDir(dir); err != nil || len(files) != 0 {
				t.Errorf("cache directory holds %d files after a refused store (err=%v)", len(files), err)
			}
			if _, outcome := cache.Probe(p.Workload, cfg); outcome != CacheMiss {
				t.Errorf("probe after a refused store = %v, want miss", outcome)
			}
		})
	}
}

// TestProbeRejectsMalformedEntries — each check Probe makes, broken
// alone in an otherwise well-formed record, reads as CacheCorrupt.
func TestProbeRejectsMalformedEntries(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpu.RTX3080()
	p := cheapWorkload(t)
	path := cache.path(p.Abbr(), cfg)
	for _, e := range malformedEntries(t, p, cfg) {
		if err := os.WriteFile(path, e.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, outcome := cache.Probe(p.Workload, cfg); outcome != CacheCorrupt {
			t.Errorf("%s: probed as %v, want corrupt", e.name, outcome)
		}
	}
}

// TestDecodeBoundsLengthsBeforeAllocating — a sealed record whose kernel
// count or name length claims far more bytes than the record holds is
// refused without allocating what it claims.
func TestDecodeBoundsLengthsBeforeAllocating(t *testing.T) {
	p := cheapWorkload(t)
	cfg := gpu.RTX3080()
	for _, tc := range []struct {
		name   string
		data   []byte
		allocs float64 // what decoding may allocate before refusing
	}{
		{"kernel count", hugeKernelCountEntry(p, cfg.Name), 1}, // the profile
		{"name length", hugeNameLengthEntry(p, cfg.Name), 2},   // the profile and its one kernel
	} {
		if _, ok := decodeEntry(tc.data, p.Workload, cfg.Name); ok {
			t.Fatalf("%s: oversized entry decoded", tc.name)
		}
		if allocs := testing.AllocsPerRun(10, func() { decodeEntry(tc.data, p.Workload, cfg.Name) }); allocs > tc.allocs {
			t.Errorf("%s: decoding an oversized entry made %v allocations, want at most %v", tc.name, allocs, tc.allocs)
		}
	}
}

// malformedEntry is a record that must probe as CacheCorrupt.
type malformedEntry struct {
	name string
	data []byte
}

// malformedEntries returns records for p's workload on cfg that each
// break one check Probe makes; all but the truncated, bad-CRC and JSON
// ones carry a valid checksum, so the check they name is the one that
// must catch them.
func malformedEntries(tb testing.TB, p *Profile, cfg gpu.DeviceConfig) []malformedEntry {
	tb.Helper()
	valid := encodeEntry(p, cfg.Name)
	body := valid[:len(valid)-4]
	changed := func(b []byte, i int, v byte) []byte {
		b = append([]byte(nil), b...)
		b[i] = v
		return b
	}
	variant := func(change func(q *Profile)) []byte {
		q := *p
		q.Kernels = append([]KernelChar(nil), p.Kernels...)
		change(&q)
		return encodeEntry(&q, cfg.Name)
	}
	other := BaselineWorkloads()[0]
	if other.Abbr() == p.Abbr() {
		other = BaselineWorkloads()[1]
	}
	return []malformedEntry{
		{"truncated", valid[:len(valid)/2]},
		{"bad CRC", changed(valid, len(valid)-1, ^valid[len(valid)-1])},
		{"bad magic", seal(changed(body, 0, 'X'))},
		{"other schema", seal(changed(body, len(entryMagic), CacheSchemaVersion+1))},
		{"trailing byte", seal(append(append([]byte(nil), body...), 0))},
		{"huge kernel count", hugeKernelCountEntry(p, cfg.Name)},
		{"huge name length", hugeNameLengthEntry(p, cfg.Name)},
		{"foreign device", encodeEntry(p, gpu.GTX1080().Name)},
		{"foreign workload", variant(func(q *Profile) { q.Workload = other })},
		{"no kernels", variant(func(q *Profile) { q.Kernels = nil })},
		{"negative total time", variant(func(q *Profile) { q.TotalTime = -1 })},
		{"NaN metric", variant(func(q *Profile) { q.Kernels[0].Metrics[profiler.GIPS] = math.NaN() })},
		{"schema-1 JSON", []byte(`{"schema":1,"abbr":"` + p.Abbr() + `","device":"` + cfg.Name + `",` +
			`"total_time":0.001,"total_warp_insts":1000,"agg_ii":1.5,"agg_gips":100,` +
			`"kernels":[{"name":"k","invocations":1,"time_share":1,"inst_count":1000,"metrics":[1,2,3]}]}`)},
	}
}

// entryHeader returns p's record up to, not including, the kernel count.
func entryHeader(p *Profile, device string) []byte {
	q := *p
	q.Kernels = nil
	b := encodeEntry(&q, device)
	return b[:len(b)-1-4] // a one-byte zero kernel count, then the CRC
}

// seal appends the checksum that makes body a well-formed record.
func seal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
}

// hugeKernelCountEntry is a sealed record of p claiming 2^40 kernels.
func hugeKernelCountEntry(p *Profile, device string) []byte {
	return seal(binary.AppendUvarint(entryHeader(p, device), 1<<40))
}

// hugeNameLengthEntry is a sealed record of p whose one kernel claims a
// 2^40-byte name.
func hugeNameLengthEntry(p *Profile, device string) []byte {
	b := binary.AppendUvarint(entryHeader(p, device), 1)
	b = binary.AppendUvarint(b, 1<<40)
	return seal(append(b, make([]byte, minKernelBytes)...))
}

// TestEntryNamesCarryTheFingerprint — entry names, looked up from the
// cache's memo after the first use, must carry exactly the fingerprint
// Fingerprint computes. That includes configurations with a NaN or a
// signed zero in a float field, which are == to configurations that
// print, and so fingerprint, differently.
func TestEntryNamesCarryTheFingerprint(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []gpu.DeviceConfig{gpu.RTX3080(), gpu.GTX1080()}
	typ := reflect.TypeOf(gpu.DeviceConfig{})
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() != reflect.Float64 {
			continue
		}
		for _, v := range []float64{0, math.Copysign(0, -1), math.NaN()} {
			cfg := gpu.RTX3080()
			reflect.ValueOf(&cfg).Elem().Field(i).SetFloat(v)
			cfgs = append(cfgs, cfg)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for _, cfg := range cfgs {
			want := fmt.Sprintf("pb-sgemm-%s-v%d%s", Fingerprint(cfg), CacheSchemaVersion, entryExt)
			if got := filepath.Base(cache.path("pb-sgemm", cfg)); got != want {
				t.Errorf("pass %d, config %+v: entry %s, want %s", pass, cfg, got, want)
			}
		}
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

// baselineEntries characterizes the baseline workloads on the RTX 3080
// into a fresh cache and returns it with their profiles.
func baselineEntries(b *testing.B) (*ProfileCache, []*Profile, gpu.DeviceConfig) {
	b.Helper()
	cache, err := OpenCache(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	cfg := gpu.RTX3080()
	st, err := NewStudyWith(cfg, StudyOptions{Cache: cache}, BaselineWorkloads()...)
	if err != nil {
		b.Fatal(err)
	}
	return cache, st.Profiles, cfg
}

// BenchmarkProfileCacheProbe — one op probes every baseline entry once,
// as a warm study does.
func BenchmarkProfileCacheProbe(b *testing.B) {
	cache, profiles, cfg := baselineEntries(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range profiles {
			if _, outcome := cache.Probe(p.Workload, cfg); outcome != CacheHit {
				b.Fatalf("%s: probe %v", p.Abbr(), outcome)
			}
		}
	}
}

// BenchmarkProfileCacheStore — one op stores every baseline profile once,
// as a cold study does.
func BenchmarkProfileCacheStore(b *testing.B) {
	cache, profiles, cfg := baselineEntries(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range profiles {
			if err := cache.Store(p, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}
