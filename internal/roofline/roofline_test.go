package roofline

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/gpu"
)

func model() Model { return ForDevice(gpu.RTX3080()) }

func TestForDeviceMatchesPaper(t *testing.T) {
	m := model()
	if math.Abs(m.PeakGIPS-516.8) > 0.01 {
		t.Errorf("PeakGIPS = %g", m.PeakGIPS)
	}
	if math.Abs(m.ElbowII()-21.75) > 0.05 {
		t.Errorf("elbow = %g, want 21.76", m.ElbowII())
	}
	// 1% threshold -> 5.168 GIPS boundary.
	if m.BoundOf(5.0) != LatencyBound {
		t.Error("5 GIPS should be latency-bound")
	}
	if m.BoundOf(5.3) != BandwidthBound {
		t.Error("5.3 GIPS should be bandwidth-bound")
	}
}

func TestRoofShape(t *testing.T) {
	m := model()
	if m.Roof(-1) != 0 {
		t.Error("negative intensity")
	}
	// Memory region: roof = ii * GTXN.
	if got := m.Roof(1); math.Abs(got-m.PeakGTXN) > 1e-9 {
		t.Errorf("roof(1) = %g, want %g", got, m.PeakGTXN)
	}
	// Compute region: roof = peak.
	if got := m.Roof(1000); got != m.PeakGIPS {
		t.Errorf("roof(1000) = %g", got)
	}
	// Continuity at the elbow.
	if math.Abs(m.Roof(m.ElbowII())-m.PeakGIPS) > 1e-6 {
		t.Error("roof discontinuous at elbow")
	}
}

func TestClassify(t *testing.T) {
	m := model()
	if m.Classify(1) != MemoryIntensive {
		t.Error("II=1 should be memory-intensive")
	}
	if m.Classify(100) != ComputeIntensive {
		t.Error("II=100 should be compute-intensive")
	}
	if MemoryIntensive.String() != "memory-intensive" || ComputeIntensive.String() != "compute-intensive" {
		t.Error("side names")
	}
	if LatencyBound.String() != "latency-bound" || BandwidthBound.String() != "bandwidth-bound" {
		t.Error("bound names")
	}
}

func TestUtilizationAndNearRoof(t *testing.T) {
	m := model()
	p := Point{Label: "half", II: 10, GIPS: m.Roof(10) / 2}
	if u := m.Utilization(p); math.Abs(u-0.5) > 1e-9 {
		t.Errorf("utilization = %g, want 0.5", u)
	}
	near := Point{Label: "near", II: 10, GIPS: 0.9 * m.Roof(10)}
	if !m.NearMemoryRoof(near, 0.8) {
		t.Error("point at 90% of memory roof should be near-roof")
	}
	farCompute := Point{Label: "c", II: 100, GIPS: 0.9 * m.PeakGIPS}
	if m.NearMemoryRoof(farCompute, 0.8) {
		t.Error("compute-intensive point is never near the memory roof")
	}
	if m.Utilization(Point{II: 0, GIPS: 0}) != 0 {
		t.Error("zero point utilization")
	}
}

// Property: the roof is monotonically nondecreasing in intensity and never
// exceeds peak.
func TestRoofMonotone(t *testing.T) {
	m := model()
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if a > b {
			a, b = b, a
		}
		ra, rb := m.Roof(a), m.Roof(b)
		return ra <= rb+1e-9 && rb <= m.PeakGIPS
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
