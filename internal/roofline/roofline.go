// Package roofline implements the instruction roofline model the paper uses
// (after Ding & Williams): performance in Giga warp Instructions Per Second
// (GIPS) against instruction intensity (warp instructions per 32-byte DRAM
// transaction). The elbow — where the memory roof meets the compute roof —
// separates memory-intensive from compute-intensive kernels; a 1 %-of-peak
// performance threshold separates latency-bound from bandwidth-bound ones.
package roofline

import (
	"math"

	"repro/internal/gpu"
	"repro/internal/units"
)

// Side classifies a point relative to the roofline elbow.
type Side uint8

const (
	// MemoryIntensive: instruction intensity left of the elbow.
	MemoryIntensive Side = iota
	// ComputeIntensive: instruction intensity right of the elbow.
	ComputeIntensive
)

// String returns the side label used as a qualitative FAMD variable.
func (s Side) String() string {
	if s == MemoryIntensive {
		return "memory-intensive"
	}
	return "compute-intensive"
}

// Bound classifies a point by achieved performance.
type Bound uint8

const (
	// LatencyBound: performance below the threshold fraction of peak.
	LatencyBound Bound = iota
	// BandwidthBound: performance above it.
	BandwidthBound
)

// String returns the bound label used as a qualitative FAMD variable.
func (b Bound) String() string {
	if b == LatencyBound {
		return "latency-bound"
	}
	return "bandwidth-bound"
}

// Model is an instruction roofline for one device.
type Model struct {
	// PeakGIPS is the compute roof.
	PeakGIPS float64
	// PeakGTXN is the memory roof slope (Giga transactions per second).
	PeakGTXN float64
	// BoundThreshold is the fraction of PeakGIPS below which a kernel is
	// labeled latency-bound. The paper uses 1 % (5.16 GIPS on the 3080).
	BoundThreshold units.Fraction
}

// defaultBoundThreshold is the paper's 1 %-of-peak latency-bound cut.
const defaultBoundThreshold units.Fraction = 0.01

// ForDevice derives the roofline from a device configuration.
func ForDevice(cfg gpu.DeviceConfig) Model {
	return Model{
		PeakGIPS:       cfg.PeakGIPS(),
		PeakGTXN:       cfg.PeakGTXN(),
		BoundThreshold: defaultBoundThreshold,
	}
}

// ElbowII returns the intensity at which the roofs meet.
func (m Model) ElbowII() float64 { return m.PeakGIPS / m.PeakGTXN }

// Roof returns the attainable GIPS at instruction intensity ii.
func (m Model) Roof(ii float64) float64 {
	if ii < 0 {
		return 0
	}
	return math.Min(m.PeakGIPS, ii*m.PeakGTXN)
}

// Classify places ii relative to the elbow.
func (m Model) Classify(ii float64) Side {
	if ii < m.ElbowII() {
		return MemoryIntensive
	}
	return ComputeIntensive
}

// BoundOf classifies achieved performance against the latency threshold.
func (m Model) BoundOf(gips float64) Bound {
	if gips < m.BoundThreshold.Float()*m.PeakGIPS {
		return LatencyBound
	}
	return BandwidthBound
}

// Point is one kernel or application placed on the roofline chart.
type Point struct {
	// Label identifies the point (kernel or workload abbreviation).
	Label string
	// II is instruction intensity (warp instructions per DRAM transaction).
	II float64
	// GIPS is achieved performance.
	GIPS float64
	// TimeShare is the point's share of its application's GPU time;
	// figures color-code by this.
	TimeShare units.Fraction
}

// Utilization returns achieved performance as a fraction of the attainable
// roof at the point's intensity (how close to a roof the point sits).
func (m Model) Utilization(p Point) float64 {
	roof := m.Roof(p.II)
	if math.IsInf(p.II, 1) {
		roof = m.PeakGIPS
	}
	if roof <= 0 {
		return 0
	}
	return p.GIPS / roof
}

// NearMemoryRoof reports whether a memory-intensive point achieves at least
// frac of the memory roof — the paper's "bound by DRAM bandwidth, close to
// the memory roof" observation for dominant ML kernels.
func (m Model) NearMemoryRoof(p Point, frac float64) bool {
	return m.Classify(p.II) == MemoryIntensive && m.Utilization(p) >= frac
}
