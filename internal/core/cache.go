// Profile cache: characterizing a workload on the device model is the one
// expensive step every figure and table derives from, so profiles are
// memoized on disk. Entries are keyed by (workload abbreviation, device
// configuration fingerprint, schema version): changing the device config,
// the metric vector layout, the entry record, or any workload definition
// must bump CacheSchemaVersion so stale entries miss instead of misread.
//
// One entry is one binary record, little-endian throughout:
//
//	magic            "CPRF"
//	schema           uvarint
//	abbr, device     uvarint length + bytes each
//	total time       float64 bits
//	total warp insts uvarint
//	agg II, GIPS     float64 bits each
//	kernels          uvarint count, then per kernel:
//	  name           uvarint length + bytes
//	  invocations    varint
//	  time share     float64 bits
//	  inst count     float64 bits
//	  metrics        profiler.NumMetrics x float64 bits
//	crc              CRC-32C of every byte before it, uint32
//
// Floats are stored as their raw bits, so a reloaded profile is
// bit-identical to the stored one by construction and cached studies
// render byte-identical output. The checksum makes any flipped bit,
// truncation or torn write read as CacheCorrupt rather than as a profile
// with a wrong number in it.
package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/gpu"
	"repro/internal/profiler"
	"repro/internal/units"
	"repro/internal/workloads"
)

// CacheSchemaVersion identifies the on-disk entry layout and the catalog
// generation that produced it. Bump on any change to Profile, the
// profiler metric set, the entry record, or workload definitions.
// Entries of any other version never match an entry name and simply
// miss.
const CacheSchemaVersion = 2

const (
	// entryMagic opens every entry record.
	entryMagic = "CPRF"
	// entryExt ends every entry file name.
	entryExt = ".prof"
	// minKernelBytes is the smallest encoding of one kernel: empty name,
	// one-byte invocation count, then the time share, the instruction
	// count and the metric vector. It bounds a decoded kernel count by
	// the bytes left before anything is allocated for it.
	minKernelBytes = 1 + 1 + 8*(2+profiler.NumMetrics)
)

// castagnoli is the CRC-32C table entries are checksummed with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ProfileCache is an on-disk store of workload profiles. One entry is one
// checksummed binary record (see the package comment); writes go through
// a temp file plus rename, so concurrent studies sharing a cache
// directory never observe partial entries.
type ProfileCache struct {
	dir string

	mu    sync.Mutex
	names map[gpu.DeviceConfig]string // entry-name suffix by device config
}

// DefaultCacheDir returns the per-user cactus profile cache directory.
func DefaultCacheDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", err
	}
	return filepath.Join(base, "cactus", "profiles"), nil
}

// OpenCache opens the profile cache rooted at dir, creating it if needed.
func OpenCache(dir string) (*ProfileCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("core: empty profile cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: opening profile cache: %w", err)
	}
	return &ProfileCache{dir: dir, names: make(map[gpu.DeviceConfig]string)}, nil
}

// Dir returns the cache root directory.
func (c *ProfileCache) Dir() string { return c.dir }

// Fingerprint returns the profile-cache fingerprint of a device
// configuration: a short hex digest over every model parameter plus the
// cache schema version. Two configurations share a fingerprint only if
// they would produce interchangeable profiles, so the fingerprint is the
// device half of every profile key — the on-disk cache entry name, the
// server's in-memory LRU key, and singleflight deduplication all derive
// from it.
func Fingerprint(cfg gpu.DeviceConfig) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("v%d|%+v", CacheSchemaVersion, cfg)))
	return hex.EncodeToString(sum[:8])
}

// path returns the entry file for (abbr, cfg). The whole device
// configuration is fingerprinted, not just its name, so tweaking any model
// parameter invalidates the entry.
func (c *ProfileCache) path(abbr string, cfg gpu.DeviceConfig) string {
	return filepath.Join(c.dir, sanitizeKey(abbr)+c.nameSuffix(cfg))
}

// nameSuffix returns the part of cfg's entry names after the workload:
// "-<fingerprint>-v<schema>.prof". Fingerprint formats and hashes the
// whole configuration, so the suffix is computed once per configuration
// the cache sees and then looked up.
func (c *ProfileCache) nameSuffix(cfg gpu.DeviceConfig) string {
	if !fingerprintKeyed(cfg) {
		return entrySuffix(cfg)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.names[cfg]
	if !ok {
		s = entrySuffix(cfg)
		c.names[cfg] = s
	}
	return s
}

func entrySuffix(cfg gpu.DeviceConfig) string {
	return fmt.Sprintf("-%s-v%d%s", Fingerprint(cfg), CacheSchemaVersion, entryExt)
}

// fingerprintKeyed reports whether every configuration == to cfg has
// cfg's fingerprint, so cfg can key a fingerprint memo. Only the float
// fields can break that: NaN equals nothing, not even itself, and +0 and
// -0 are equal but print, and so fingerprint, apart.
func fingerprintKeyed(cfg gpu.DeviceConfig) bool {
	for _, v := range [...]float64{cfg.ClockGHz, cfg.DRAMBandwidth, cfg.LaunchOverheadNs} {
		if v == 0 || math.IsNaN(v) {
			return false
		}
	}
	return true
}

// sanitizeKey keeps abbreviations filesystem-safe.
func sanitizeKey(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z',
			r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, s)
}

// CacheOutcome classifies one profile-cache probe; telemetry counters and
// the CLI's -v progress lines attribute each workload to one of these.
type CacheOutcome int

const (
	// CacheDisabled means no cache was configured for the probe.
	CacheDisabled CacheOutcome = iota
	// CacheHit means the entry existed and loaded cleanly.
	CacheHit
	// CacheMiss means the entry was absent.
	CacheMiss
	// CacheCorrupt means the entry existed but was unreadable, malformed,
	// or mismatched — functionally a miss (the caller re-simulates and
	// overwrites), but reported distinctly so corruption is visible
	// instead of silently swallowed.
	CacheCorrupt
)

// String returns the outcome label used in progress lines and trace args.
func (o CacheOutcome) String() string {
	switch o {
	case CacheDisabled:
		return "disabled"
	case CacheHit:
		return "hit"
	case CacheMiss:
		return "miss"
	case CacheCorrupt:
		return "corrupt"
	}
	return "unknown"
}

// Probe returns w's cached profile for cfg together with the probe outcome
// (CacheHit, CacheMiss, or CacheCorrupt — never CacheDisabled).
func (c *ProfileCache) Probe(w workloads.Workload, cfg gpu.DeviceConfig) (*Profile, CacheOutcome) {
	data, err := os.ReadFile(c.path(w.Abbr(), cfg))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, CacheMiss
		}
		return nil, CacheCorrupt
	}
	p, ok := decodeEntry(data, w, cfg.Name)
	if !ok {
		return nil, CacheCorrupt
	}
	return p, CacheHit
}

// Store writes p's cache entry for cfg atomically. A profile holding a
// NaN or infinite number is refused and no entry is written: the record
// would hold it faithfully, but no profile the device model derives has
// one, so it can only be a fault, and Probe refuses such an entry anyway.
func (c *ProfileCache) Store(p *Profile, cfg gpu.DeviceConfig) error {
	if err := checkFinite(p); err != nil {
		return err
	}
	data := encodeEntry(p, cfg.Name)
	final := c.path(p.Abbr(), cfg)
	tmp, err := os.CreateTemp(c.dir, "."+filepath.Base(final)+".*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close() // the write error is the one worth reporting
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// checkFinite returns an error naming the first NaN or infinite number in
// p. Kernel time shares are stored clamped to [0,1] and need no check.
func checkFinite(p *Profile) error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"total time", p.TotalTime.Float()},
		{"aggregate II", p.AggII},
		{"aggregate GIPS", p.AggGIPS},
	} {
		if !finite(f.v) {
			return fmt.Errorf("core: %s: non-finite %s %v", p.Abbr(), f.name, f.v)
		}
	}
	for _, k := range p.Kernels {
		if !finite(k.instCount) {
			return fmt.Errorf("core: %s kernel %s: non-finite instruction count %v", p.Abbr(), k.Name, k.instCount)
		}
		for m, v := range k.Metrics {
			if !finite(v) {
				return fmt.Errorf("core: %s kernel %s: non-finite %s %v", p.Abbr(), k.Name, profiler.Metric(m), v)
			}
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// encodeEntry returns p's entry record (layout in the package comment)
// for the device named device.
func encodeEntry(p *Profile, device string) []byte {
	b := binary.AppendUvarint([]byte(entryMagic), CacheSchemaVersion)
	b = appendString(b, p.Abbr())
	b = appendString(b, device)
	b = appendFloat(b, p.TotalTime.Float())
	b = binary.AppendUvarint(b, uint64(p.TotalWarpInsts))
	b = appendFloat(b, p.AggII)
	b = appendFloat(b, p.AggGIPS)
	b = binary.AppendUvarint(b, uint64(len(p.Kernels)))
	for _, k := range p.Kernels {
		b = appendString(b, k.Name)
		b = binary.AppendVarint(b, int64(k.Invocations))
		b = appendFloat(b, k.TimeShare.Clamp01())
		b = appendFloat(b, k.instCount)
		for _, v := range k.Metrics {
			b = appendFloat(b, v)
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// decodeEntry rebuilds w's profile from an entry record, or reports
// ok=false if data is not a whole, intact record of the current schema
// for w on the device named device with at least one kernel, a positive
// total time and only finite numbers.
func decodeEntry(data []byte, w workloads.Workload, device string) (p *Profile, ok bool) {
	n := len(data) - 4
	if n < len(entryMagic) || string(data[:len(entryMagic)]) != entryMagic ||
		crc32.Checksum(data[:n], castagnoli) != binary.LittleEndian.Uint32(data[n:]) {
		return nil, false
	}
	r := entryReader{b: data[len(entryMagic):n]}
	if r.uvarint() != CacheSchemaVersion || string(r.bytes()) != w.Abbr() || string(r.bytes()) != device {
		return nil, false
	}
	p = &Profile{
		Workload:       w,
		TotalTime:      units.Seconds(r.float()),
		TotalWarpInsts: units.WarpInsts(r.uvarint()),
		AggII:          r.float(),
		AggGIPS:        r.float(),
	}
	count := r.uvarint()
	if r.bad || count == 0 || count > uint64(len(r.b)/minKernelBytes) || p.TotalTime <= 0 {
		return nil, false
	}
	p.Kernels = make([]KernelChar, count)
	for i := range p.Kernels {
		k := &p.Kernels[i]
		k.Name = string(r.bytes())
		k.Invocations = int(r.varint())
		k.TimeShare = units.Fraction(r.float())
		k.instCount = r.float()
		for m := range k.Metrics {
			k.Metrics[m] = r.float()
		}
	}
	if r.bad || len(r.b) != 0 {
		return nil, false
	}
	return p, true
}

// entryReader reads an entry record's fields in order. Every read checks
// the bytes that remain; the first failure marks the reader bad, and
// every later read returns zero.
type entryReader struct {
	b   []byte
	bad bool
}

func (r *entryReader) fail() {
	r.b, r.bad = nil, true
}

func (r *entryReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *entryReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// float reads one float64 and fails on NaN or infinity, which Store never
// writes.
func (r *entryReader) float() float64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	if !finite(v) {
		r.fail()
		return 0
	}
	r.b = r.b[8:]
	return v
}

// bytes reads one length-prefixed byte string without copying it; a
// length beyond the bytes that remain fails before anything is allocated.
func (r *entryReader) bytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	s := r.b[:n]
	r.b = r.b[n:]
	return s
}
