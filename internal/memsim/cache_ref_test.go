package memsim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/units"
)

// refCache is the retained reference implementation of the sectored
// set-associative LRU cache: the straightforward slice-of-line-structs
// layout with a valid bit and an LRU tick per line, which Cache's
// recency-ordered sets replaced. It exists only as a test oracle — the
// property tests below drive it and Cache with identical streams and
// demand identical behavior, access by access.
type refCache struct {
	sets    [][]refLine
	tick    uint64
	hits    uint64
	accs    uint64
	evicts  uint64 // fills that replaced a valid line
	setMask uint64
}

type refLine struct {
	tag     uint64
	lastUse uint64
	valid   bool
	sectors uint8
}

func newRefCache(cfg CacheConfig) *refCache {
	nSets := cfg.numSets()
	sets := make([][]refLine, nSets)
	for i := range sets {
		sets[i] = make([]refLine, cfg.Assoc)
	}
	return &refCache{sets: sets, setMask: uint64(nSets - 1)}
}

func (c *refCache) access(addr uint64) bool {
	c.tick++
	c.accs++
	lineAddr := addr / LineBytes
	sector := uint8(1) << ((addr / SectorBytes) % SectorsPerLine)
	set := c.sets[lineAddr&c.setMask]
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == lineAddr {
			l.lastUse = c.tick
			if l.sectors&sector != 0 {
				c.hits++
				return true
			}
			l.sectors |= sector
			return false
		}
	}
	victim := 0
	for i := 1; i < len(set); i++ {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	l := &set[victim]
	if l.valid {
		c.evicts++
	}
	l.valid = true
	l.tag = lineAddr
	l.lastUse = c.tick
	l.sectors = sector
	return false
}

// refHierarchy mirrors Hierarchy.Access over two reference caches.
type refHierarchy struct {
	l1, l2 *refCache
	t      Traffic
}

func (h *refHierarchy) access(addr uint64) {
	h.t.Sectors++
	if h.l1.access(addr) {
		h.t.L1Hits++
		return
	}
	if h.l2.access(addr) {
		h.t.L2Hits++
		return
	}
	h.t.DRAMTxns++
	h.t.DRAMReadTx++
}

// propConfigs are the cache geometries the property tests sweep, including
// direct-mapped levels, non-power-of-two set counts (exercising the
// round-down mask path) and the two stock devices. Those are literals
// because memsim cannot import gpu; they copy gpu's RTX3080/GTX1080
// L1BytesPerSM and L2Bytes with the associativities of its L1Config (4)
// and L2Config (16).
var propConfigs = []struct {
	name   string
	l1, l2 CacheConfig
}{
	{"ampere-like",
		CacheConfig{Name: "L1", SizeBytes: 16 << 10, Assoc: 4},
		CacheConfig{Name: "L2", SizeBytes: 128 << 10, Assoc: 8}},
	{"two-way",
		CacheConfig{Name: "L1", SizeBytes: 8 << 10, Assoc: 2},
		CacheConfig{Name: "L2", SizeBytes: 64 << 10, Assoc: 4}},
	{"direct-mapped-tiny",
		CacheConfig{Name: "L1", SizeBytes: 2 << 10, Assoc: 1},
		CacheConfig{Name: "L2", SizeBytes: 8 << 10, Assoc: 1}},
	{"non-pow2-sets",
		CacheConfig{Name: "L1", SizeBytes: 3 * 128 * 4, Assoc: 4},
		CacheConfig{Name: "L2", SizeBytes: 6 * 128 * 8, Assoc: 8}},
	// 256 L1 sets; 2,560 L2 sets round down to 2,048.
	{"rtx3080",
		CacheConfig{Name: "L1", SizeBytes: 128 << 10, Assoc: 4},
		CacheConfig{Name: "L2", SizeBytes: 5 << 20, Assoc: 16}},
	// 96 L1 sets round down to 64; 1,024 L2 sets.
	{"gtx1080",
		CacheConfig{Name: "L1", SizeBytes: 48 << 10, Assoc: 4},
		CacheConfig{Name: "L2", SizeBytes: 2 << 20, Assoc: 16}},
}

// stockConfig reports whether cfg is one of the stock device geometries.
func stockConfig(name string) bool { return name == "rtx3080" || name == "gtx1080" }

// propPatterns generate the address streams: each returns the i-th
// address of a stream of n. The generators only use the shared *rand.Rand,
// so streams are reproducible per seed.
var propPatterns = []struct {
	name string
	n    int
	gen  func(r *rand.Rand, i int) uint64
}{
	{"sequential", 20000, func(r *rand.Rand, i int) uint64 {
		return uint64(i) * SectorBytes
	}},
	{"strided-lines", 20000, func(r *rand.Rand, i int) uint64 {
		return uint64(i) * LineBytes * 3
	}},
	{"random-window", 20000, func(r *rand.Rand, i int) uint64 {
		return uint64(r.Intn(1 << 16))
	}},
	{"hot-set", 20000, func(r *rand.Rand, i int) uint64 {
		// 90% of accesses land in 4 KiB; the rest roam 16 MiB.
		if r.Intn(10) > 0 {
			return uint64(r.Intn(4 << 10))
		}
		return uint64(r.Intn(16 << 20))
	}},
	{"conflict-heavy", 20000, func(r *rand.Rand, i int) uint64 {
		// Same set, rotating tags: maximal eviction pressure.
		return uint64(r.Intn(16)) * (64 << 10)
	}},
	// Long enough that the stock L2s' 16-way sets fill and evict
	// (TestHierarchyMatchesReferenceTraffic checks that they do).
	{"bfs-gather", 200000, bfsGather},
}

// bfsGather is graphx's advanceTrace at Replication 20 on GRU's lattice,
// 1,024 vertices wide: per frontier vertex u, one offsets read, then its
// four-edge run read 4 bytes at a time, each edge followed by a gather of
// its neighbor's label. Offsets, edge runs and labels are stretched
// 20-fold, so label and offset gathers lie 80 bytes per vertex id apart.
// The frontier steps 3 ids per vertex, so a label read as the next row's
// comes back about 340 vertices later: after the stock L1s have evicted
// it, before the L2s have.
func bfsGather(_ *rand.Rand, i int) uint64 {
	const (
		rep, width                    = 20, 1024
		offsBase, edgeBase, labelBase = 0, 1 << 30, 2 << 30
	)
	u := uint64(i/9)*3 + width
	switch j := i % 9; {
	case j == 0:
		return offsBase + u*4*rep
	case j%2 == 1:
		return edgeBase + 4*u*4*rep + uint64(j/2)*4
	default:
		nb := [4]uint64{u - width, u - 1, u + 1, u + width}
		return labelBase + nb[j/2-1]*4*rep
	}
}

// TestCacheMatchesReference drives Cache and the reference implementation
// with identical streams across the configs x patterns table and requires
// identical per-access results and final stats.
func TestCacheMatchesReference(t *testing.T) {
	for _, cfg := range propConfigs {
		for _, pat := range propPatterns {
			t.Run(cfg.name+"/"+pat.name, func(t *testing.T) {
				c := NewCache(cfg.l1)
				ref := newRefCache(cfg.l1)
				r := rand.New(rand.NewSource(1))
				var accs, hits uint64
				for i := 0; i < pat.n; i++ {
					addr := pat.gen(r, i)
					got, want := c.Access(addr), ref.access(addr)
					if got != want {
						t.Fatalf("access %d (addr %#x): Cache %v, reference %v",
							i, addr, got, want)
					}
					accs++
					if got {
						hits++
					}
				}
				if accs != ref.accs || hits != ref.hits {
					t.Errorf("stats: Cache (%d, %d), reference (%d, %d)",
						accs, hits, ref.accs, ref.hits)
				}
			})
		}
	}
}

// TestHierarchyMatchesReferenceTraffic checks the full two-level replay:
// identical Traffic from the hierarchy and the reference hierarchy over
// every config x pattern cell, including after a mid-stream Reset (the
// replay-pool reuse path). The BFS gather stream must evict from the
// stock devices' L2s, or it would not exercise their full sets.
func TestHierarchyMatchesReferenceTraffic(t *testing.T) {
	for _, cfg := range propConfigs {
		for _, pat := range propPatterns {
			t.Run(cfg.name+"/"+pat.name, func(t *testing.T) {
				h := NewHierarchy(cfg.l1, cfg.l2)
				ref := &refHierarchy{l1: newRefCache(cfg.l1), l2: newRefCache(cfg.l2)}
				r := rand.New(rand.NewSource(2))
				for i := 0; i < pat.n*3/4; i++ {
					addr := pat.gen(r, i)
					h.Access(addr)
					ref.access(addr)
				}
				if h.Traffic() != ref.t {
					t.Fatalf("traffic: Hierarchy %+v, reference %+v", h.Traffic(), ref.t)
				}
				if pat.name == "bfs-gather" && stockConfig(cfg.name) && ref.l2.evicts == 0 {
					t.Errorf("the stream evicted nothing from L2 (%d accesses)", ref.l2.accs)
				}

				// Reset and replay a fresh stream: a stale tag surviving
				// Reset would show up as phantom hits here.
				h.Reset()
				ref = &refHierarchy{l1: newRefCache(cfg.l1), l2: newRefCache(cfg.l2)}
				r = rand.New(rand.NewSource(3))
				for i := 0; i < pat.n/4; i++ {
					addr := pat.gen(r, i)
					h.Access(addr)
					ref.access(addr)
				}
				if h.Traffic() != ref.t {
					t.Fatalf("traffic after Reset: Hierarchy %+v, reference %+v", h.Traffic(), ref.t)
				}
			})
		}
	}
}

// TestReplayPoolReuseMatchesReference replays two overlapping BFS gather
// streams, one after the other, through a Hierarchy taken from and
// returned to a ReplayPool on each stock geometry, and compares each with
// a fresh reference: a line surviving Get's reset would show up as a
// phantom hit in the second stream. sync.Pool may drop the hierarchy (the
// race detector does so at random), in which case the test logs it.
func TestReplayPoolReuseMatchesReference(t *testing.T) {
	for _, cfg := range propConfigs {
		if !stockConfig(cfg.name) {
			continue
		}
		t.Run(cfg.name, func(t *testing.T) {
			p := NewReplayPool(cfg.l1, cfg.l2)
			var prev *Hierarchy
			for k, start := range []int{0, 50000} {
				h := p.Get()
				if k > 0 && h != prev {
					t.Log("the pool dropped the hierarchy; this stream ran on a new one")
				}
				ref := &refHierarchy{l1: newRefCache(cfg.l1), l2: newRefCache(cfg.l2)}
				for i := start; i < start+100000; i++ {
					addr := bfsGather(nil, i)
					h.Access(addr)
					ref.access(addr)
				}
				if h.Traffic() != ref.t {
					t.Fatalf("stream %d: Hierarchy %+v, reference %+v", k, h.Traffic(), ref.t)
				}
				p.Put(h)
				prev = h
			}
		})
	}
}

// TestAccessBatchMatchesPerAccess checks the batched entry points resolve
// exactly like element-wise Access over the same stream.
func TestAccessBatchMatchesPerAccess(t *testing.T) {
	for _, cfg := range propConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			one := NewHierarchy(cfg.l1, cfg.l2)
			batched := NewHierarchy(cfg.l1, cfg.l2)
			r := rand.New(rand.NewSource(4))
			for round := 0; round < 50; round++ {
				n := 1 + r.Intn(300)
				addrs := make([]uint64, n)
				for i := range addrs {
					addrs[i] = uint64(r.Intn(1 << 18))
				}
				for _, a := range addrs {
					one.Access(a)
				}
				batched.AccessBatch(addrs)
			}
			if one.Traffic() != batched.Traffic() {
				t.Errorf("traffic: per-access %+v, batched %+v", one.Traffic(), batched.Traffic())
			}
		})
	}
}

// TestTrafficScaleRounding pins Scale's rounding behavior: round-to-nearest
// with halves away from zero, bit-for-bit what the former +0.5-then-truncate
// idiom produced for the non-negative counts Traffic holds. These goldens
// guard the byte-identical-output contract of the replay path (profiles
// store scaled traffic).
func TestTrafficScaleRounding(t *testing.T) {
	cases := []struct {
		v    uint64
		f    float64
		want uint64
	}{
		{0, 2.5, 0},
		{1, 1, 1},
		{7, 1.5, 11},    // 10.5 rounds up
		{5, 0.5, 3},     // 2.5 rounds up (away from zero)
		{3, 1.0 / 3, 1}, // 0.999... rounds to 1
		{10, 1.0 / 3, 3},
		{1000003, 1.0 / 0.25, 4000012},
		{999999999, 1.37, 1369999999}, // large counts stay exact
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%dx%g", c.v, c.f), func(t *testing.T) {
			v := units.Txns(c.v)
			tr := Traffic{Sectors: v, L1Hits: v, L2Hits: v,
				DRAMTxns: v, DRAMReadTx: v, DRAMWriteTx: v}
			got := tr.Scale(c.f)
			if uint64(got.Sectors) != c.want {
				t.Errorf("Scale(%g) of %d = %d, want %d", c.f, c.v, got.Sectors, c.want)
			}
			// Every field scales identically.
			if got.L1Hits != got.Sectors || got.DRAMWriteTx != got.Sectors {
				t.Errorf("fields scaled unevenly: %+v", got)
			}
			// Agreement with the former idiom for non-negative counts.
			if old := uint64(float64(c.v)*c.f + 0.5); old != c.want {
				t.Errorf("golden %d disagrees with the legacy idiom %d — test bug", c.want, old)
			}
		})
	}
}
