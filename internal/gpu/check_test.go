package gpu

import (
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// TestCheckResultCleanOnModel verifies that everything the timing model
// actually produces passes the metric audit: a compute-bound kernel, a
// memory-bound kernel, and a zero-DRAM kernel (whose instruction intensity
// is consistently +Inf on both sides of the identity).
func TestCheckResultCleanOnModel(t *testing.T) {
	d := dev(t)
	cfg := d.Config()
	var noTraffic isa.Mix
	noTraffic.Add(isa.FP32, 1<<20)
	noTraffic.Add(isa.Misc, 1<<10)
	specs := []KernelSpec{
		computeSpec(1 << 22),
		memSpec(64 << 20),
		{Name: "alu-only", Grid: D1(1024), Block: D1(256), Mix: noTraffic},
	}
	for _, spec := range specs {
		res, err := d.Launch(spec)
		if err != nil {
			t.Fatal(err)
		}
		if issues := CheckResult(cfg, res); len(issues) != 0 {
			t.Errorf("%s: modeled result fails its own audit: %v", spec.Name, issues)
		}
	}
}

// TestCheckResultRules corrupts one field at a time and checks the audit
// catches each class of inconsistency.
func TestCheckResultRules(t *testing.T) {
	d := dev(t)
	cfg := d.Config()
	base, err := d.Launch(computeSpec(1 << 22))
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name     string
		mutate   func(*LaunchResult)
		wantRule string
	}{
		{"negative-time", func(r *LaunchResult) { r.Time = -1e-6 }, "time"},
		{"zero-time", func(r *LaunchResult) { r.Time = 0 }, "time"},
		{"efficiency-above-one", func(r *LaunchResult) { r.SMEfficiency = 1.5 }, "fraction-range"},
		{"nan-util", func(r *LaunchResult) { r.LDSTUtil = units.Fraction(math.NaN()) }, "fraction-range"},
		{"negative-stall", func(r *LaunchResult) { r.StallSync = -0.1 }, "fraction-range"},
		{"stalls-over-one", func(r *LaunchResult) {
			r.StallExec, r.StallPipe, r.StallSync, r.StallMem = 0.4, 0.3, 0.3, 0.3
		}, "stall-sum"},
		{"intensity-drift", func(r *LaunchResult) { r.InstIntensity *= 2 }, "intensity"},
		{"intensity-spurious-inf", func(r *LaunchResult) { r.InstIntensity = math.Inf(1) }, "intensity"},
		{"gips-drift", func(r *LaunchResult) { r.GIPS *= 1.01 }, "gips"},
		{"throughput-over-peak", func(r *LaunchResult) {
			r.DRAMReadBytesPerSec = units.BytesPerSec(cfg.DRAMBandwidth * 2e9)
		}, "dram-throughput"},
		{"negative-overhead", func(r *LaunchResult) { r.Overhead = -1e-9 }, "overhead-range"},
		{"overhead-exceeds-time", func(r *LaunchResult) { r.Overhead = r.Time * 2 }, "overhead-range"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := base
			tt.mutate(&r)
			issues := CheckResult(cfg, r)
			for _, i := range issues {
				if i.Rule == tt.wantRule {
					return
				}
			}
			t.Errorf("CheckResult issues = %v, want rule %q", issues, tt.wantRule)
		})
	}
}

// TestLaunchAttributionIdentity — every modeled launch's bottleneck
// shares sum to 1 within the audit tolerance, the overhead share is the
// carved-out launch overhead, and the attribution-sum audit rule stays
// clean on model output but catches a corrupted result.
func TestLaunchAttributionIdentity(t *testing.T) {
	d := dev(t)
	cfg := d.Config()
	for _, spec := range []KernelSpec{computeSpec(1 << 22), memSpec(64 << 20)} {
		r, err := d.Launch(spec)
		if err != nil {
			t.Fatal(err)
		}
		s := r.Attribution()
		if sum := s.Sum(); math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: shares sum to %.15g, want 1", spec.Name, sum)
		}
		wantOh := r.Overhead.Float() / r.Time.Float()
		if got := s[telemetry.BottleneckOverhead].Float(); math.Abs(got-wantOh) > 1e-12 {
			t.Errorf("%s: overhead share = %g, want %g", spec.Name, got, wantOh)
		}
		if r.Overhead.Nanos() != cfg.LaunchOverheadNs {
			t.Errorf("%s: overhead = %g ns, want the device constant %g ns",
				spec.Name, r.Overhead.Nanos(), cfg.LaunchOverheadNs)
		}
	}
	// A memory-dominated kernel must attribute mostly to DRAM.
	r, err := d.Launch(memSpec(64 << 20))
	if err != nil {
		t.Fatal(err)
	}
	if dom := dominant(r.Attribution()); dom != telemetry.BottleneckDRAM {
		t.Errorf("memory-bound kernel dominant category = %s, want dram", dom)
	}
}

// dominant returns the category with the largest share (ties resolve to
// the earlier category).
func dominant(s telemetry.BottleneckShares) telemetry.Bottleneck {
	best := telemetry.BottleneckDRAM
	for _, b := range telemetry.Bottlenecks() {
		if s[b] > s[best] {
			best = b
		}
	}
	return best
}

// TestMetricIssueString pins the "rule: detail" rendering.
func TestMetricIssueString(t *testing.T) {
	i := MetricIssue{Rule: "gips", Detail: "drift"}
	if got := i.String(); got != "gips: drift" {
		t.Errorf("String() = %q", got)
	}
}
