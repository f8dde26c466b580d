package memsim

import (
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func model() *LocalityModel {
	return NewLocalityModel(68, 128<<10, 5<<20)
}

func TestStreamValidate(t *testing.T) {
	ok := Stream{Name: "s", FootprintBytes: 100, AccessBytes: 200, ElemBytes: 4}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := ok
	bad.ElemBytes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero elem bytes should fail")
	}
	bad = ok
	bad.AccessBytes = 50
	if err := bad.Validate(); err == nil {
		t.Error("access < footprint should fail for non-broadcast")
	}
}

func TestPatternString(t *testing.T) {
	for p, want := range map[Pattern]string{
		Coalesced: "coalesced", Random: "random", Broadcast: "broadcast",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}

func TestCoalescedStreamingGoesToDRAM(t *testing.T) {
	// 1 GB coalesced single-pass stream: fits nowhere, all sectors to DRAM.
	m := model()
	tr, err := m.Resolve(Stream{
		Name: "stream", FootprintBytes: 1 << 30, AccessBytes: 1 << 30,
		ElemBytes: 4, Pattern: Coalesced, Partitioned: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantSectors := units.Txns(1<<30) / SectorBytes
	if tr.Sectors != wantSectors {
		t.Errorf("sectors = %d, want %d", tr.Sectors, wantSectors)
	}
	if float64(tr.DRAMTxns) < 0.95*float64(wantSectors) {
		t.Errorf("DRAM txns = %d, want ~%d (streaming)", tr.DRAMTxns, wantSectors)
	}
}

func TestL1ResidentReuseHitsL1(t *testing.T) {
	m := model()
	// 32 KB per-SM footprint read 10x: all reuse should hit L1.
	foot := uint64(32 << 10 * 68) // partitioned across 68 SMs -> 32 KB/SM
	tr, err := m.Resolve(Stream{
		Name: "tile", FootprintBytes: foot, AccessBytes: 10 * foot,
		ElemBytes: 4, Pattern: Coalesced, Partitioned: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.L1HitRate() < 0.85 {
		t.Errorf("L1 hit rate = %g, want ~0.9 for resident reuse", tr.L1HitRate())
	}
}

func TestL2ResidentReuseHitsL2(t *testing.T) {
	m := model()
	// 2 MB footprint read 8x: too big for L1 (even partitioned at ~30 KB/SM
	// it fits L1 — force non-partitioned), fits L2.
	foot := uint64(2 << 20)
	tr, err := m.Resolve(Stream{
		Name: "l2res", FootprintBytes: foot, AccessBytes: 8 * foot,
		ElemBytes: 4, Pattern: Coalesced, Partitioned: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.L2Hits == 0 {
		t.Error("expected L2 hits for L2-resident reuse")
	}
	// DRAM should be roughly the cold footprint.
	cold := units.Txns(foot / SectorBytes)
	if tr.DRAMTxns > cold*2 {
		t.Errorf("DRAM txns = %d, want ~%d", tr.DRAMTxns, cold)
	}
}

// TestSectorRequestsCoalescing pins the per-warp sector counts: a warp of
// 32 four-byte lanes issues 4 sectors when coalesced, 32 when random, and
// 1 when every lane reads the same address.
func TestSectorRequestsCoalescing(t *testing.T) {
	const warp = 32 * 4
	for _, tc := range []struct {
		p    Pattern
		want uint64
	}{
		{Coalesced, 4},
		{Random, 32},
		{Broadcast, 1},
	} {
		s := Stream{Name: "w", FootprintBytes: warp, AccessBytes: warp, ElemBytes: 4, Pattern: tc.p}
		if got := sectorRequests(s); got != tc.want {
			t.Errorf("%v warp = %d sectors, want %d", tc.p, got, tc.want)
		}
	}
	// A partial sector still costs one request.
	if got := sectorRequests(Stream{Name: "tiny", FootprintBytes: 8, AccessBytes: 8, ElemBytes: 4, Pattern: Coalesced}); got != 1 {
		t.Errorf("8-byte coalesced access = %d sectors, want 1", got)
	}
}

func TestBroadcastIsCheap(t *testing.T) {
	m := model()
	tr, err := m.Resolve(Stream{
		Name: "lut", FootprintBytes: 4 << 10, AccessBytes: 1 << 26,
		ElemBytes: 4, Pattern: Broadcast,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.L1HitRate() < 0.9 {
		t.Errorf("broadcast L1 hit rate = %g, want ~1", tr.L1HitRate())
	}
}

func TestStoreStreamCountsWrites(t *testing.T) {
	m := model()
	tr, err := m.Resolve(Stream{
		Name: "out", FootprintBytes: 1 << 26, AccessBytes: 1 << 26,
		ElemBytes: 4, Pattern: Coalesced, Store: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.DRAMWriteTx == 0 || tr.DRAMReadTx != 0 {
		t.Errorf("store stream traffic = %+v", tr)
	}
}

func TestResolveAllAccumulates(t *testing.T) {
	m := model()
	s := Stream{Name: "a", FootprintBytes: 1 << 20, AccessBytes: 1 << 20, ElemBytes: 4, Pattern: Coalesced}
	one, err := m.Resolve(s)
	if err != nil {
		t.Fatal(err)
	}
	two, err := m.ResolveAll([]Stream{s, s})
	if err != nil {
		t.Fatal(err)
	}
	if two.Sectors != 2*one.Sectors {
		t.Errorf("ResolveAll sectors = %d, want %d", two.Sectors, 2*one.Sectors)
	}
	if _, err := m.ResolveAll([]Stream{{Name: "bad"}}); err == nil {
		t.Error("invalid stream should propagate error")
	}
}

// Property: traffic conservation — sectors == L1 hits + L2 hits + DRAM txns
// for every valid stream resolution.
func TestResolveConservation(t *testing.T) {
	m := model()
	f := func(footKB uint16, reuse uint8, pat uint8, part bool) bool {
		foot := uint64(footKB%2048+1) * 1024
		r := uint64(reuse%16 + 1)
		s := Stream{
			Name: "q", FootprintBytes: foot, AccessBytes: foot * r,
			ElemBytes: 4, Pattern: Pattern(pat % 3), Partitioned: part,
		}
		if s.Pattern == Broadcast {
			s.AccessBytes = foot * 32
		}
		tr, err := m.Resolve(s)
		if err != nil {
			return false
		}
		return tr.Sectors == tr.L1Hits+tr.L2Hits+tr.DRAMTxns
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: more reuse never lowers the hit fraction for an L2-resident
// footprint.
func TestReuseMonotonicity(t *testing.T) {
	m := model()
	foot := uint64(1 << 20)
	prevHits := -1.0
	for reuse := uint64(1); reuse <= 16; reuse *= 2 {
		tr, err := m.Resolve(Stream{
			Name: "mono", FootprintBytes: foot, AccessBytes: foot * reuse,
			ElemBytes: 4, Pattern: Coalesced,
		})
		if err != nil {
			t.Fatal(err)
		}
		hitFrac := float64(tr.L1Hits+tr.L2Hits) / float64(tr.Sectors)
		if hitFrac < prevHits-1e-9 {
			t.Errorf("hit fraction decreased with reuse %d: %g -> %g", reuse, prevHits, hitFrac)
		}
		prevHits = hitFrac
	}
}
