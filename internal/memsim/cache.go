// Package memsim models the GPU memory hierarchy. It provides two
// complementary resolution paths for a kernel's global-memory traffic:
//
//   - a sectored set-associative cache simulator (Cache, Hierarchy) that
//     replays address traces, used for kernels whose locality is
//     data-dependent (graph gathers, neighbor-list walks);
//   - an analytical locality model (stream.go) that derives hit rates from a
//     declarative description of access streams, used for dense/regular
//     kernels (GEMM tiles, elementwise, stencils).
//
// Both paths produce the same outcome type (Traffic): sector-granular counts
// of accesses, L1 hits, L2 hits, and DRAM transactions. Ampere-style
// geometry is used throughout: 128-byte cache lines split into four 32-byte
// sectors; DRAM transactions are 32-byte sectors, matching the paper's
// 23.76 GTXN/s peak-bandwidth derivation.
package memsim

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/units"
)

// Geometry constants shared by the hierarchy.
const (
	// LineBytes is the cache-line size.
	LineBytes = 128
	// SectorBytes is the sector (and DRAM transaction) size.
	SectorBytes = 32
	// SectorsPerLine is the number of sectors per line.
	SectorsPerLine = LineBytes / SectorBytes
)

// CacheConfig describes one cache level. Every level is sectored: a miss
// fills only the requested sector of its line.
type CacheConfig struct {
	Name      string // e.g. "L1", "L2"
	SizeBytes int    // total capacity
	Assoc     int    // ways per set
}

// Validate reports configuration errors.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 {
		return fmt.Errorf("memsim: %s: non-positive size %d", c.Name, c.SizeBytes)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("memsim: %s: non-positive associativity %d", c.Name, c.Assoc)
	}
	if c.SizeBytes%(LineBytes*c.Assoc) != 0 {
		return fmt.Errorf("memsim: %s: size %d not divisible by line*assoc=%d",
			c.Name, c.SizeBytes, LineBytes*c.Assoc)
	}
	return nil
}

// numSets returns the power-of-two set count for the config. Non-power-of-two
// counts round down so the set index is a mask; the capacity difference is
// irrelevant at the fidelity of this model.
func (c CacheConfig) numSets() int {
	nSets := c.SizeBytes / (LineBytes * c.Assoc)
	if nSets&(nSets-1) != 0 {
		p := 1
		for p*2 <= nSets {
			p *= 2
		}
		nSets = p
	}
	return nSets
}

// Cache is a set-associative, sectored cache with LRU replacement. Replay
// is load-only: every access is a read that allocates on a miss. It is not
// safe for concurrent use.
//
// Line metadata lives in flat struct-of-arrays slices indexed set*assoc+way
// rather than per-set slices of line structs: the probe loop walks one
// contiguous tag run per access with no pointer chasing, and Reset only has
// to clear the LRU array. A line is valid iff its lastUse entry is nonzero —
// ticks start at 1, so every resident line has lastUse >= 1, and a cleared
// entry doubles as the invalid bit (this folds the valid bitset into the LRU
// counters and keeps the probe to one load per way).
type Cache struct {
	assoc   int
	setMask uint64

	tags    []uint64 // line tag per (set, way); meaningful iff lastUse != 0
	lastUse []uint64 // LRU tick per (set, way); 0 = invalid
	sectors []uint8  // present-sector bitmask per (set, way)

	tick uint64
}

// NewCache builds a cache from cfg. It panics on invalid configuration:
// cache geometry is program-defined, so a bad value is a programming error.
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nSets := cfg.numSets()
	lines := nSets * cfg.Assoc
	return &Cache{
		assoc:   cfg.Assoc,
		setMask: uint64(nSets - 1),
		tags:    make([]uint64, lines),
		lastUse: make([]uint64, lines),
		sectors: make([]uint8, lines),
	}
}

// Access performs one sector-granular load at byte address addr. It
// returns true on a hit.
func (c *Cache) Access(addr uint64) bool {
	c.tick++
	lineAddr := addr / LineBytes
	sector := uint8(1) << ((addr / SectorBytes) % SectorsPerLine)
	base := int(lineAddr&c.setMask) * c.assoc
	tag := lineAddr

	tags := c.tags[base : base+c.assoc : base+c.assoc]
	use := c.lastUse[base : base+c.assoc : base+c.assoc]

	// Probe.
	for i, t := range tags {
		if use[i] != 0 && t == tag {
			use[i] = c.tick
			if c.sectors[base+i]&sector != 0 {
				return true
			}
			// Line present but sector missing: sector miss fills the sector.
			c.sectors[base+i] |= sector
			return false
		}
	}
	// Miss: fill into the LRU victim (an invalid way, lastUse 0, always
	// loses the strict-< scan, so empty ways fill before any resident line
	// evicts).
	victim := 0
	for i := 1; i < len(use); i++ {
		if use[i] == 0 {
			victim = i
			break
		}
		if use[i] < use[victim] {
			victim = i
		}
	}
	tags[victim] = tag
	use[victim] = c.tick
	c.sectors[base+victim] = sector
	return false
}

// Reset clears contents and the LRU clock. Only the LRU array needs wiping:
// lastUse 0 marks a way invalid, and the fill path overwrites its tag and
// sector mask before the way can match again.
func (c *Cache) Reset() {
	for i := range c.lastUse {
		c.lastUse[i] = 0
	}
	c.tick = 0
}

// Traffic summarizes resolved global-memory traffic for one kernel launch,
// in 32-byte sector units (units.Txns).
type Traffic struct {
	Sectors     units.Txns // total sector accesses issued to L1
	L1Hits      units.Txns
	L2Hits      units.Txns
	DRAMTxns    units.Txns // sectors served by DRAM (reads + writes)
	DRAMReadTx  units.Txns
	DRAMWriteTx units.Txns
}

// Add accumulates other into t.
func (t *Traffic) Add(o Traffic) {
	t.Sectors += o.Sectors
	t.L1Hits += o.L1Hits
	t.L2Hits += o.L2Hits
	t.DRAMTxns += o.DRAMTxns
	t.DRAMReadTx += o.DRAMReadTx
	t.DRAMWriteTx += o.DRAMWriteTx
}

// L1HitRate returns the fraction of sector accesses hitting in L1.
func (t Traffic) L1HitRate() units.Fraction {
	return units.Ratio(t.L1Hits.Float(), t.Sectors.Float())
}

// L2HitRate returns the fraction of L1 misses hitting in L2.
func (t Traffic) L2HitRate() units.Fraction {
	misses := t.Sectors - t.L1Hits
	return units.Ratio(t.L2Hits.Float(), misses.Float())
}

// Scale returns traffic scaled by f (e.g. to extrapolate a sampled trace to
// the full grid). Counts round to nearest, halves away from zero.
func (t Traffic) Scale(f float64) Traffic {
	s := func(v units.Txns) units.Txns { return units.Txns(math.Round(v.Float() * f)) }
	return Traffic{
		Sectors:     s(t.Sectors),
		L1Hits:      s(t.L1Hits),
		L2Hits:      s(t.L2Hits),
		DRAMTxns:    s(t.DRAMTxns),
		DRAMReadTx:  s(t.DRAMReadTx),
		DRAMWriteTx: s(t.DRAMWriteTx),
	}
}

// Hierarchy couples a per-SM L1 with a device-wide L2 and replays accesses.
// The single L1 instance stands in for one SM's L1; callers replay a sampled
// subset of warps, which is equivalent to tracing one SM's share of the grid.
//
// A Hierarchy is the mutable replay state for one launch; the immutable
// config/geometry half lives in the CacheConfig pair (see ReplayPool, which
// hands out per-launch instances so concurrent launches never share one).
type Hierarchy struct {
	L1 *Cache
	L2 *Cache
	t  Traffic
}

// NewHierarchy builds an L1+L2 hierarchy.
func NewHierarchy(l1, l2 CacheConfig) *Hierarchy {
	return &Hierarchy{L1: NewCache(l1), L2: NewCache(l2)}
}

// AccessBatch resolves a block of sector loads in issue order,
// accumulating traffic once per block instead of once per access. Trace
// emitters buffer address runs and feed them here.
func (h *Hierarchy) AccessBatch(addrs []uint64) {
	var l1Hits, l2Hits, dram units.Txns
	for _, a := range addrs {
		if h.L1.Access(a) {
			l1Hits++
			continue
		}
		if h.L2.Access(a) {
			l2Hits++
			continue
		}
		dram++
	}
	h.t.Sectors += units.Txns(len(addrs))
	h.t.L1Hits += l1Hits
	h.t.L2Hits += l2Hits
	h.t.DRAMTxns += dram
	h.t.DRAMReadTx += dram
}

// Traffic returns accumulated traffic.
func (h *Hierarchy) Traffic() Traffic { return h.t }

// Reset clears caches and traffic.
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	h.L2.Reset()
	h.t = Traffic{}
}

// Batcher accumulates sector load addresses and flushes them through
// Hierarchy.AccessBatch in issue order, so trace emitters get block
// processing without managing buffers themselves. Zero value is not usable;
// construct with NewBatcher. Flush must be called before reading the
// hierarchy's traffic.
type Batcher struct {
	h   *Hierarchy
	buf []uint64
}

// batcherChunk bounds a Batcher's buffered addresses (8 KiB per Batcher).
const batcherChunk = 1024

// NewBatcher returns a Batcher feeding h.
func NewBatcher(h *Hierarchy) *Batcher {
	return &Batcher{h: h, buf: make([]uint64, 0, batcherChunk)}
}

// Access buffers one sector access at byte address addr.
func (b *Batcher) Access(addr uint64) {
	if len(b.buf) == cap(b.buf) {
		b.Flush()
	}
	b.buf = append(b.buf, addr)
}

// Flush replays all buffered accesses.
func (b *Batcher) Flush() {
	b.h.AccessBatch(b.buf)
	b.buf = b.buf[:0]
}

// ReplayPool hands out per-launch Hierarchy replay states for one immutable
// L1/L2 geometry. Splitting the stateful replay half (Hierarchy) from the
// config half (the CacheConfig pair held here) is what lets a shared Device
// run trace replays concurrently: each launch borrows its own state instead
// of serializing on one hierarchy behind a mutex.
// No field here takes a `guarded by` annotation (the lock-documentation
// convention): l1/l2 are immutable after construction, and pool is a
// sync.Pool, which synchronizes internally.
type ReplayPool struct {
	l1, l2 CacheConfig
	pool   sync.Pool
}

// NewReplayPool validates the geometry once and returns a pool. It panics on
// invalid configuration, like NewCache.
func NewReplayPool(l1, l2 CacheConfig) *ReplayPool {
	if err := l1.Validate(); err != nil {
		panic(err)
	}
	if err := l2.Validate(); err != nil {
		panic(err)
	}
	return &ReplayPool{l1: l1, l2: l2}
}

// Get returns a reset Hierarchy owned by the caller until Put.
func (p *ReplayPool) Get() *Hierarchy {
	if h, ok := p.pool.Get().(*Hierarchy); ok {
		h.Reset()
		return h
	}
	return NewHierarchy(p.l1, p.l2)
}

// Put returns a Hierarchy to the pool for reuse by a later launch.
func (p *ReplayPool) Put(h *Hierarchy) {
	if h != nil {
		p.pool.Put(h)
	}
}
