package memsim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func smallCache() CacheConfig {
	return CacheConfig{Name: "T", SizeBytes: 8 << 10, Assoc: 4}
}

// loadHits performs a load at each address in turn and returns how many hit.
func loadHits(c *Cache, addrs ...uint64) (hits int) {
	for _, a := range addrs {
		if c.Access(a) {
			hits++
		}
	}
	return hits
}

// Access resolves one sector access through L1 then L2, updating traffic:
// the per-access reference AccessBatch must match.
func (h *Hierarchy) Access(addr uint64) {
	h.t.Sectors++
	if h.L1.Access(addr) {
		h.t.L1Hits++
		return
	}
	if h.L2.Access(addr) {
		h.t.L2Hits++
		return
	}
	h.t.DRAMTxns++
	h.t.DRAMReadTx++
}

func TestCacheConfigValidate(t *testing.T) {
	if err := smallCache().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := smallCache()
	bad.SizeBytes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero size should be invalid")
	}
	bad = smallCache()
	bad.Assoc = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero assoc should be invalid")
	}
	bad = smallCache()
	bad.SizeBytes = 1000 // not divisible by line*assoc
	if err := bad.Validate(); err == nil {
		t.Error("non-divisible size should be invalid")
	}
}

func TestNewCachePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewCache(CacheConfig{Name: "bad"})
}

func TestCacheColdMissThenHit(t *testing.T) {
	c := NewCache(smallCache())
	cold, warm := c.Access(0), c.Access(0)
	if cold {
		t.Error("cold access should miss")
	}
	if !warm {
		t.Error("second access should hit")
	}
	hits := 0
	for _, hit := range []bool{cold, warm} {
		if hit {
			hits++
		}
	}
	if rate := float64(hits) / 2; rate != 0.5 {
		t.Errorf("hit rate = %g, want 0.5", rate)
	}
}

func TestCacheSectoredFill(t *testing.T) {
	c := NewCache(smallCache())
	c.Access(0) // fills sector 0 of line 0
	// Different sector of the same line: must be a sector miss.
	if c.Access(64) {
		t.Error("different sector of same line should miss in a sectored cache")
	}
	// Both sectors now present.
	if !c.Access(0) || !c.Access(64) {
		t.Error("both sectors should now hit")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 4-way cache: 5 distinct lines mapping to the same set evict the LRU.
	cfg := smallCache()
	c := NewCache(cfg)
	nSets := cfg.SizeBytes / (LineBytes * cfg.Assoc) // 16 sets
	setStride := uint64(nSets * LineBytes)
	for i := 0; i < 5; i++ {
		c.Access(uint64(i) * setStride)
	}
	if c.Access(0) {
		t.Error("line 0 should have been evicted (LRU)")
	}
	// Line 1 was refreshed least recently after the wrap: line 1..4 + new 0
	// means line 1 is LRU now.
	if c.Access(4*setStride) != true {
		t.Error("line 4 should still be resident")
	}
}

// TestCacheReset checks that a reset cache is cold and replays a stream
// hit for hit like a freshly built one.
func TestCacheReset(t *testing.T) {
	c := NewCache(smallCache())
	c.Access(0)
	c.Access(0)
	c.Reset()
	stream := []uint64{0, 64, 0, 4096, 64, 0}
	if got, want := loadHits(c, stream...), loadHits(NewCache(smallCache()), stream...); got != want {
		t.Errorf("after reset %d of %d loads hit, a fresh cache hits %d", got, len(stream), want)
	}
	c.Reset()
	if hits := loadHits(c, 0); hits != 0 {
		t.Error("after reset contents should be cold: hit rate of single miss should be 0")
	}
}

func TestCacheNonPowerOfTwoSetsRoundsDown(t *testing.T) {
	// 3-way, 384 lines -> 128 sets... pick sizes forcing non-power-of-two.
	cfg := CacheConfig{Name: "npot", SizeBytes: 3 * 128 * 100, Assoc: 3}
	c := NewCache(cfg) // must not panic; sets rounded to 64
	if c.Access(0) {
		t.Error("cold miss expected")
	}
	if !c.Access(0) {
		t.Error("hit expected")
	}
}

func TestHierarchyTrafficAccounting(t *testing.T) {
	h := NewHierarchy(
		CacheConfig{Name: "L1", SizeBytes: 4 << 10, Assoc: 4},
		CacheConfig{Name: "L2", SizeBytes: 64 << 10, Assoc: 8},
	)
	// Cold read: miss everywhere -> one DRAM read transaction.
	h.Access(0)
	tr := h.Traffic()
	if tr.Sectors != 1 || tr.DRAMTxns != 1 || tr.DRAMReadTx != 1 {
		t.Errorf("cold access traffic = %+v", tr)
	}
	// Re-access: L1 hit.
	h.Access(0)
	tr = h.Traffic()
	if tr.L1Hits != 1 {
		t.Errorf("expected 1 L1 hit, got %+v", tr)
	}
	if tr.L1HitRate() != 0.5 {
		t.Errorf("L1 hit rate = %g", tr.L1HitRate())
	}
}

func TestHierarchyL2CatchesL1Evictions(t *testing.T) {
	h := NewHierarchy(
		CacheConfig{Name: "L1", SizeBytes: 1 << 10, Assoc: 2},
		CacheConfig{Name: "L2", SizeBytes: 1 << 20, Assoc: 8},
	)
	// Touch a 16 KB footprint twice: too big for L1, fits L2.
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < 16<<10; a += SectorBytes {
			h.Access(a)
		}
	}
	tr := h.Traffic()
	if tr.L2Hits == 0 {
		t.Error("second pass should hit in L2")
	}
	if tr.L2HitRate() < 0.4 {
		t.Errorf("L2 hit rate = %g, want ~0.5", tr.L2HitRate())
	}
	// DRAM transactions should be roughly the cold footprint (512 sectors).
	if tr.DRAMTxns < 480 || tr.DRAMTxns > 560 {
		t.Errorf("DRAM txns = %d, want ~512", tr.DRAMTxns)
	}
}

func TestTrafficScaleAndAdd(t *testing.T) {
	a := Traffic{Sectors: 10, L1Hits: 4, L2Hits: 2, DRAMTxns: 4, DRAMReadTx: 3, DRAMWriteTx: 1}
	b := a.Scale(2)
	if b.Sectors != 20 || b.DRAMTxns != 8 {
		t.Errorf("scale: %+v", b)
	}
	a.Add(b)
	if a.Sectors != 30 || a.DRAMWriteTx != 3 {
		t.Errorf("add: %+v", a)
	}
}

func TestTrafficRatesEmpty(t *testing.T) {
	var tr Traffic
	if tr.L1HitRate() != 0 || tr.L2HitRate() != 0 {
		t.Error("empty traffic rates should be 0")
	}
	full := Traffic{Sectors: 5, L1Hits: 5}
	if full.L2HitRate() != 0 {
		t.Error("no L1 misses -> L2 hit rate 0")
	}
}

// Property: hit counters never exceed accesses, and replaying any trace
// twice on a big-enough cache yields at least the first-pass miss count as
// hits on the second pass.
func TestCacheInvariantHitsBounded(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		c := NewCache(smallCache())
		var acc, hits uint64
		for i := 0; i < int(n); i++ {
			acc++
			if c.Access(uint64(r.Intn(1 << 14))) {
				hits++
			}
		}
		return hits <= acc && acc == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyDRAMConservation(t *testing.T) {
	// Property: sectors = L1 hits + L2 hits + DRAM txns.
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		h := NewHierarchy(
			CacheConfig{Name: "L1", SizeBytes: 2 << 10, Assoc: 2},
			CacheConfig{Name: "L2", SizeBytes: 32 << 10, Assoc: 4},
		)
		for i := 0; i < int(n); i++ {
			h.Access(uint64(r.Intn(1 << 16)))
		}
		tr := h.Traffic()
		return tr.Sectors == tr.L1Hits+tr.L2Hits+tr.DRAMTxns
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
