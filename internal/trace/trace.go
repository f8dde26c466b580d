// Package trace implements the paper's stated future work: exporting
// Cactus kernel traces in a format consumable by GPU simulators, "so that
// researchers can simulate Cactus workloads without requiring access to a
// real GPU device". A trace records every kernel launch of a profiled run —
// geometry, per-class instruction counts, and resolved memory traffic — as
// line-delimited JSON plus a header, the structure trace-driven simulators
// (Accel-Sim-style) ingest.
package trace

import (
	"bufio"
	"encoding/json"
	"io"

	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/profiler"
)

// FormatVersion identifies the trace schema.
const FormatVersion = 1

// Header opens a trace file.
type Header struct {
	Format   string  `json:"format"`
	Version  int     `json:"version"`
	Workload string  `json:"workload"`
	Device   string  `json:"device"`
	PeakGIPS float64 `json:"peak_gips"`
	PeakGTXN float64 `json:"peak_gtxn"`
	Launches int     `json:"launches"`
}

// Launch is one kernel-launch record.
type Launch struct {
	Seq    int    `json:"seq"`
	Kernel string `json:"kernel"`
	Grid   [3]int `json:"grid"`
	Block  [3]int `json:"block"`
	// Insts maps instruction-class mnemonics to warp-instruction counts.
	Insts map[string]uint64 `json:"insts"`
	// Memory traffic in 32-byte sectors.
	Sectors  uint64 `json:"sectors"`
	L1Hits   uint64 `json:"l1_hits"`
	L2Hits   uint64 `json:"l2_hits"`
	DRAMTxns uint64 `json:"dram_txns"`
	// Modeled duration in nanoseconds.
	TimeNs float64 `json:"time_ns"`
}

// Export writes the session's launches for the named workload to w.
func Export(w io.Writer, workload string, cfg gpu.DeviceConfig, sess *profiler.Session) error {
	launches := sess.Launches()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(Header{
		Format: "cactus-trace", Version: FormatVersion,
		Workload: workload, Device: cfg.Name,
		PeakGIPS: cfg.PeakGIPS(), PeakGTXN: cfg.PeakGTXN(),
		Launches: len(launches),
	}); err != nil {
		return err
	}
	for i, l := range launches {
		rec := Launch{
			Seq:     i,
			Kernel:  l.Name,
			Grid:    [3]int{l.Grid.X, l.Grid.Y, l.Grid.Z},
			Block:   [3]int{l.Block.X, l.Block.Y, l.Block.Z},
			Insts:   map[string]uint64{},
			Sectors: uint64(l.Traffic.Sectors), L1Hits: uint64(l.Traffic.L1Hits),
			L2Hits: uint64(l.Traffic.L2Hits), DRAMTxns: uint64(l.Traffic.DRAMTxns),
			TimeNs: l.Time.Nanos(),
		}
		for _, c := range isa.Classes() {
			if n := l.Mix.Count(c); n > 0 {
				rec.Insts[c.String()] = n
			}
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}
