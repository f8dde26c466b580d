package memsim

import (
	"fmt"

	"repro/internal/units"
)

// Pattern classifies the spatial shape of a global-memory access stream.
type Pattern uint8

const (
	// Coalesced: consecutive lanes touch consecutive elements; a warp access
	// maps onto the minimal number of 32-byte sectors.
	Coalesced Pattern = iota
	// Random: data-dependent gather/scatter across the footprint (graph
	// neighbor gathers, hash probes); every request is its own sector.
	Random
	// Broadcast: all lanes of a warp read the same address (lookup tables,
	// filter weights); one sector request per warp instruction.
	Broadcast
)

// String returns the pattern name.
func (p Pattern) String() string {
	switch p {
	case Coalesced:
		return "coalesced"
	case Random:
		return "random"
	case Broadcast:
		return "broadcast"
	}
	return fmt.Sprintf("pattern(%d)", uint8(p))
}

// Stream declaratively describes one global-memory access stream of a kernel
// launch for the analytical locality model.
type Stream struct {
	// Name identifies the stream in diagnostics ("A-tile", "edge-list", ...).
	Name string
	// FootprintBytes is the number of unique bytes the stream touches.
	FootprintBytes uint64
	// AccessBytes is the total bytes requested; AccessBytes/FootprintBytes
	// is the temporal reuse factor (tiled GEMM reads each A element many
	// times; a streaming copy reads each byte once).
	AccessBytes uint64
	// ElemBytes is the per-lane element size (4 for FP32).
	ElemBytes int
	// Pattern is the spatial shape.
	Pattern Pattern
	// Store marks the stream as writes.
	Store bool
	// Partitioned marks footprints that are divided across SMs (the usual
	// data-parallel case); unset means every SM touches the whole footprint
	// (shared weights, lookup tables).
	Partitioned bool
}

// Validate reports obviously inconsistent stream descriptions.
func (s Stream) Validate() error {
	if s.ElemBytes <= 0 {
		return fmt.Errorf("memsim: stream %q: elem bytes %d", s.Name, s.ElemBytes)
	}
	// Random and Broadcast streams may sample an array sparsely, so their
	// access volume can be below the addressable footprint; dense patterns
	// must sweep their footprint at least once.
	if s.AccessBytes < s.FootprintBytes && s.Pattern != Broadcast && s.Pattern != Random {
		return fmt.Errorf("memsim: stream %q: access bytes %d < footprint %d",
			s.Name, s.AccessBytes, s.FootprintBytes)
	}
	return nil
}

// LocalityModel resolves declarative streams against cache capacities.
type LocalityModel struct {
	NumSMs  int
	L1Bytes int
	L2Bytes int
}

// The usable fractions of L1 and L2 capacity (conflicts, other data).
const (
	l1Efficiency = 0.5
	l2Efficiency = 0.75
)

// NewLocalityModel returns a model of numSMs L1s of l1Bytes each in front of
// one L2 of l2Bytes.
func NewLocalityModel(numSMs, l1Bytes, l2Bytes int) *LocalityModel {
	return &LocalityModel{NumSMs: numSMs, L1Bytes: l1Bytes, L2Bytes: l2Bytes}
}

// sectorRequests returns the number of 32-byte sector requests the stream
// issues to L1 after warp-level coalescing.
func sectorRequests(s Stream) uint64 {
	elems := s.AccessBytes / uint64(s.ElemBytes)
	switch s.Pattern {
	case Coalesced:
		n := s.AccessBytes / SectorBytes
		if n == 0 && s.AccessBytes > 0 {
			n = 1
		}
		return n
	case Random:
		// One sector request per element: no coalescing across lanes.
		return elems
	case Broadcast:
		// One request per warp instruction (32 lanes share it).
		n := elems / 32
		if n == 0 && elems > 0 {
			n = 1
		}
		return n
	}
	return elems
}

// uniqueSectors returns the stream's unique-sector footprint.
func uniqueSectors(s Stream) uint64 {
	switch s.Pattern {
	case Coalesced, Broadcast:
		n := s.FootprintBytes / SectorBytes
		if n == 0 && s.FootprintBytes > 0 {
			n = 1
		}
		return n
	case Random:
		// Gathers land on footprint/32 distinct sectors once the footprint
		// is covered, but sparse gathers may touch fewer.
		bySectors := s.FootprintBytes / SectorBytes
		if bySectors == 0 {
			bySectors = 1
		}
		req := sectorRequests(s)
		if req < bySectors {
			return req
		}
		return bySectors
	}
	return s.FootprintBytes / SectorBytes
}

// Resolve computes the Traffic for one stream.
func (m *LocalityModel) Resolve(s Stream) (Traffic, error) {
	if err := s.Validate(); err != nil {
		return Traffic{}, err
	}
	req := sectorRequests(s)
	uniq := uniqueSectors(s)
	if uniq > req {
		uniq = req
	}
	reuseHits := req - uniq // accesses beyond the cold footprint sweep

	l1Cap := uint64(float64(m.L1Bytes) * l1Efficiency)
	l2Cap := uint64(float64(m.L2Bytes) * l2Efficiency)

	l1Footprint := s.FootprintBytes
	if s.Partitioned && m.NumSMs > 0 {
		l1Footprint /= uint64(m.NumSMs)
	}

	var t Traffic
	t.Sectors = units.Txns(req)
	switch {
	case l1Footprint <= l1Cap:
		// Working set is L1-resident: all reuse hits in L1, cold misses go
		// down the hierarchy (and hit L2 only if the full footprint is
		// L2-resident across launches; within a launch they are cold).
		t.L1Hits = units.Txns(reuseHits)
		if s.FootprintBytes <= l2Cap {
			// Fraction of cold misses served by a warm L2 (producer/consumer
			// reuse across thread blocks within the launch).
			t.L2Hits = units.Txns(uniq / 2)
		}
		t.DRAMTxns = t.Sectors - t.L1Hits - t.L2Hits
	case s.FootprintBytes <= l2Cap:
		// L2-resident: reuse hits in L2, plus short-window L1 locality.
		shortL1 := reuseHits / 8
		t.L1Hits = units.Txns(shortL1)
		t.L2Hits = units.Txns(reuseHits - shortL1)
		t.DRAMTxns = units.Txns(uniq)
	default:
		// Streaming through DRAM. Short-window reuse still catches a slice
		// of accesses in L1/L2 (register-tiled GEMM re-reads within a CTA).
		shortL1 := reuseHits / 16
		shortL2 := reuseHits / 4
		if shortL1+shortL2 > reuseHits {
			shortL2 = reuseHits - shortL1
		}
		t.L1Hits = units.Txns(shortL1)
		t.L2Hits = units.Txns(shortL2)
		t.DRAMTxns = units.Txns(req - shortL1 - shortL2)
	}
	if s.Store {
		t.DRAMWriteTx = t.DRAMTxns
	} else {
		t.DRAMReadTx = t.DRAMTxns
	}
	return t, nil
}

// ResolveAll resolves a set of streams and accumulates their traffic.
func (m *LocalityModel) ResolveAll(streams []Stream) (Traffic, error) {
	var total Traffic
	for _, s := range streams {
		t, err := m.Resolve(s)
		if err != nil {
			return Traffic{}, err
		}
		total.Add(t)
	}
	return total, nil
}
