package gpu

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// Issue is one rule a kernel spec (CheckSpec) or a modeled launch result
// (CheckResult) breaks. profiler.Session.Launch runs both checks on every
// launch it prices and fails the launch on any issue.
type Issue struct {
	// Rule names the violated invariant (stable identifier).
	Rule string
	// Detail is the human-readable explanation.
	Detail string
}

func (i Issue) String() string { return i.Rule + ": " + i.Detail }

// relTol is the tolerance for recomputed-identity checks. The audited
// fields are produced from the same inputs the checks recompute them from,
// so only floating-point association error is forgiven — anything larger
// means the model and its outputs have drifted apart.
const relTol = 1e-9

// CheckResult audits one modeled launch result for cross-metric
// consistency against the device that produced it: a value that is
// dimensionally or arithmetically inconsistent with the rest of the result,
// even though every field looks plausible in isolation. It reports:
//
//   - time: the modeled duration is not positive and finite
//   - fraction-range: a fractional metric (SM efficiency, pipe
//     utilizations, stall shares, cache hit rates) is NaN or outside [0,1]
//   - stall-sum: the four stall shares sum to more than 1
//   - intensity: InstIntensity does not equal Mix.Total()/DRAMTxns (both
//     +Inf for zero-DRAM kernels is consistent)
//   - gips: GIPS does not equal Mix.Total()/Time/1e9
//   - dram-throughput: achieved DRAM read throughput exceeds the device's
//     peak bandwidth
//   - overhead-range: the launch overhead is negative or exceeds the
//     modeled duration it is part of
//   - attribution-sum: the top-down bottleneck shares (LaunchResult.
//     Attribution) do not sum to 1 within tolerance — the per-launch leaf
//     identity the attribution tree's every level inherits
func CheckResult(c DeviceConfig, r LaunchResult) []Issue {
	var issues []Issue
	add := func(rule, format string, args ...any) {
		issues = append(issues, Issue{Rule: rule, Detail: fmt.Sprintf(format, args...)})
	}

	if t := r.Time.Float(); !(t > 0) || math.IsInf(t, 0) {
		add("time", "modeled time %g s is not positive and finite", t)
	}

	fracs := []struct {
		name string
		v    units.Fraction
	}{
		{"SMEfficiency", r.SMEfficiency},
		{"LDSTUtil", r.LDSTUtil},
		{"SPUtil", r.SPUtil},
		{"StallExec", r.StallExec},
		{"StallPipe", r.StallPipe},
		{"StallSync", r.StallSync},
		{"StallMem", r.StallMem},
		{"L1HitRate", r.Traffic.L1HitRate()},
		{"L2HitRate", r.Traffic.L2HitRate()},
	}
	for _, f := range fracs {
		if v := f.v.Float(); math.IsNaN(v) || v < 0 || v > 1 {
			add("fraction-range", "%s = %g is outside [0, 1]", f.name, v)
		}
	}

	if sum := (r.StallExec + r.StallPipe + r.StallSync + r.StallMem).Float(); sum > 1+relTol {
		add("stall-sum", "stall shares sum to %g > 1", sum)
	}

	wantII := units.Intensity(units.WarpInsts(r.Mix.Total()), r.Traffic.DRAMTxns)
	if !sameRate(r.InstIntensity, wantII) {
		add("intensity", "InstIntensity = %g, but Mix.Total()/DRAMTxns = %g",
			r.InstIntensity, wantII)
	}

	wantGIPS := units.WarpInsts(r.Mix.Total()).PerSec(r.Time) / 1e9
	if !sameRate(r.GIPS, wantGIPS) {
		add("gips", "GIPS = %g, but Mix.Total()/Time = %g GIPS", r.GIPS, wantGIPS)
	}

	peak := c.DRAMBandwidth * 1e9 // GB/s -> bytes/s
	if got := r.DRAMReadBytesPerSec.Float(); got > peak*(1+relTol) {
		add("dram-throughput", "DRAM read throughput %.4g B/s exceeds the %s peak %.4g B/s",
			got, c.Name, peak)
	}

	if oh, t := r.Overhead.Float(), r.Time.Float(); oh < 0 || oh > t*(1+relTol) {
		add("overhead-range", "launch overhead %g s is outside [0, Time=%g s]", oh, t)
	}

	if sum := r.Attribution().Sum(); math.Abs(sum-1) > relTol {
		add("attribution-sum", "bottleneck shares sum to %.12g, want 1", sum)
	}
	return issues
}

// sameRate compares two derived rates: consistent when both are +Inf
// (zero-DRAM instruction intensity) or equal within relTol.
func sameRate(got, want float64) bool {
	if math.IsInf(got, 1) || math.IsInf(want, 1) {
		return math.IsInf(got, 1) && math.IsInf(want, 1)
	}
	if math.IsNaN(got) || math.IsNaN(want) {
		return false
	}
	return math.Abs(got-want) <= relTol*math.Max(math.Abs(want), 1)
}
