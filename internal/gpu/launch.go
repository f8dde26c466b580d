package gpu

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/memsim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// pipeRate returns a class's per-SM throughput in warp instructions per
// cycle on device c. The FP32 and load/store rates derive from the config
// (CoresPerSM/WarpSize and LDSTPerSM/WarpSize); the remaining classes model
// fixed Ampere ratios: 2 FP64 units, 64 INT32 lanes, 16 SFU ports.
func pipeRate(cfg DeviceConfig, c isa.Class) float64 {
	switch c {
	case isa.FP32, isa.Tensor:
		return cfg.SPRate()
	case isa.FP64:
		return 0.0625
	case isa.INT:
		return 2
	case isa.SFU:
		return 0.5
	case isa.LoadGlobal, isa.StoreGlobal, isa.LoadShared, isa.StoreShared, isa.LoadConst:
		return cfg.LDSTRate()
	case isa.Branch, isa.Sync, isa.Misc:
		return float64(cfg.SchedulersPerSM) // issue-limited only
	}
	return float64(cfg.SchedulersPerSM)
}

// LaunchResult reports the modeled execution of one kernel launch, carrying
// everything the profiler needs to compute the paper's Table IV metrics.
type LaunchResult struct {
	Name        string
	Grid, Block Dim3

	// Time is the modeled kernel duration, including launch overhead.
	Time units.Seconds
	// Overhead is the fixed launch-overhead portion of Time — the input the
	// top-down attribution tree carves out as its "overhead" category.
	Overhead units.Seconds
	// Mix is the executed warp-instruction histogram.
	Mix isa.Mix
	// Traffic is the resolved global-memory traffic.
	Traffic memsim.Traffic
	// Occ is the occupancy outcome.
	Occ Occupancy

	// SMEfficiency is the fraction of kernel time with at least one active
	// warp per SM.
	SMEfficiency units.Fraction
	// GIPS is achieved Giga warp instructions per second. GIPS and
	// InstIntensity stay raw float64: they are derived rates the roofline
	// plots directly, not one of the base dimensions.
	GIPS float64
	// InstIntensity is warp instructions per DRAM transaction (the roofline
	// x-axis). Infinite (math.Inf) when the kernel produced no DRAM traffic;
	// every JSON export boundary clamps this to a finite value — the
	// profiler's KernelProfile.Metrics and the telemetry launch args both
	// floor the transaction count at 1 (encoding/json rejects ±Inf).
	InstIntensity float64
	// DRAMReadBytesPerSec is the achieved DRAM read throughput.
	DRAMReadBytesPerSec units.BytesPerSec
	// LDSTUtil and SPUtil are the load/store- and FP32-pipe busy fractions.
	LDSTUtil, SPUtil units.Fraction
	// Stall ratios (fractions of issue opportunities lost per cause).
	StallExec, StallPipe, StallSync, StallMem units.Fraction
}

// Device models one GPU. Launch is safe for concurrent use: trace replays
// run against per-launch cache-hierarchy states borrowed from a pool, so
// concurrent launches never contend on shared simulator state.
type Device struct {
	cfg      DeviceConfig
	locality *memsim.LocalityModel
	replay   *memsim.ReplayPool

	tracer   telemetry.Tracer
	counters *telemetry.Counters
}

// New builds a device from cfg.
func New(cfg DeviceConfig) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Device{
		cfg:      cfg,
		locality: memsim.NewLocalityModel(cfg.NumSMs, cfg.L1BytesPerSM, cfg.L2Bytes),
		replay:   memsim.NewReplayPool(cfg.L1Config(), cfg.L2Config()),
		tracer:   telemetry.Nop,
	}, nil
}

// Config returns the device configuration.
func (d *Device) Config() DeviceConfig { return d.cfg }

// SetTelemetry attaches an event tracer and a counters registry to the
// device: every Launch then emits a host-track span (the time spent in the
// model) and bumps the launch/warp-instruction counters. Either may be nil.
// Not safe to call concurrently with Launch — attach before issuing work.
func (d *Device) SetTelemetry(tr telemetry.Tracer, ctr *telemetry.Counters) {
	d.tracer = telemetry.Or(tr)
	d.counters = ctr
}

// Launch models the execution of one kernel and returns its result.
func (d *Device) Launch(spec KernelSpec) (LaunchResult, error) {
	// The Enabled check is the entire disabled-tracer cost (plus two nil
	// counter checks below) — see BenchmarkLaunchTelemetry.
	traced := d.tracer.Enabled()
	var hostStart float64
	if traced {
		hostStart = telemetry.Now()
	}
	if err := spec.Validate(); err != nil {
		return LaunchResult{}, err
	}

	// --- Memory traffic -------------------------------------------------
	traffic, err := d.locality.ResolveAll(spec.Streams)
	if err != nil {
		return LaunchResult{}, fmt.Errorf("gpu: kernel %s: %w", spec.Name, err)
	}
	if spec.Trace != nil {
		// Each replay borrows its own reset hierarchy state, so concurrent
		// launches on a shared device proceed without serialization; the
		// replay itself is deterministic, so results stay byte-identical to
		// a serial run.
		hier := d.replay.Get()
		spec.Trace(hier)
		traffic.Add(hier.Traffic().Scale(1 / spec.TraceCoverage))
		d.replay.Put(hier)
	}

	// --- Occupancy and efficiency ---------------------------------------
	occ := occupancyOf(d.cfg, spec)
	mix := spec.Mix
	total := mix.Total()

	globalFrac := float64(mix.GlobalOps()) / float64(total)
	// Warps needed per scheduler to hide latency: a handful for arithmetic
	// dependencies, many more when global-memory latency dominates.
	required := 2.0 + 28.0*globalFrac
	activePerSched := occ.Achieved / float64(d.cfg.SchedulersPerSM)
	effOcc := activePerSched / (activePerSched + required)
	eff := effOcc * (1 - spec.DivergenceFraction) * (1 - dependencyFraction)
	if eff <= 0 {
		eff = 1e-3
	}

	// --- Interval timing -------------------------------------------------
	clockHz := d.cfg.ClockGHz * 1e9
	issueRate := float64(d.cfg.NumSMs*d.cfg.SchedulersPerSM) * clockHz // warp insts/s
	tIssue := float64(total) / issueRate

	tPipe := 0.0
	pipeClass := isa.FP32
	for _, c := range isa.Classes() {
		n := mix.Count(c)
		if n == 0 {
			continue
		}
		t := float64(n) / (pipeRate(d.cfg, c) * float64(d.cfg.NumSMs) * clockHz)
		if t > tPipe {
			tPipe, pipeClass = t, c
		}
	}
	tCompute := math.Max(tIssue, tPipe) / eff

	dramEff := 0.85
	tMem := float64(traffic.DRAMTxns) / (d.cfg.PeakGTXN() * 1e9 * dramEff)

	// Barriers serialize block phases: charge ~30 stall cycles per sync
	// warp instruction on its scheduler.
	syncStall := units.Cycles(30 * float64(mix.Count(isa.Sync)))
	tSync := syncStall.AtRate(issueRate).Float()

	tExec := math.Max(tCompute, tMem) + tSync
	tTotal := tExec + spec.LaunchOverhead(d.cfg).Float()

	// --- Derived metrics --------------------------------------------------
	res := LaunchResult{
		Name:     spec.Name,
		Grid:     spec.Grid,
		Block:    spec.Block,
		Time:     units.Seconds(tTotal),
		Overhead: spec.LaunchOverhead(d.cfg),
		Mix:      mix,
		Traffic:  traffic,
		Occ:      occ,
	}
	res.GIPS = units.WarpInsts(total).PerSec(res.Time) / 1e9
	res.InstIntensity = units.Intensity(units.WarpInsts(total), traffic.DRAMTxns)
	res.DRAMReadBytesPerSec = units.Throughput(
		traffic.DRAMReadTx.Bytes(memsim.SectorBytes), res.Time)

	lsuInsts := mix.MemoryOps()
	res.LDSTUtil = units.Clamp01(float64(lsuInsts) / (d.cfg.LDSTRate() * float64(d.cfg.NumSMs) * clockHz * tTotal))
	res.SPUtil = units.Clamp01(float64(mix.Count(isa.FP32)) / (d.cfg.SPRate() * float64(d.cfg.NumSMs) * clockHz * tTotal))

	res.SMEfficiency = smEfficiency(d.cfg, spec, occ)

	// Stall attribution: shares of lost issue opportunities.
	memShare := 0.0
	if tExec > 0 {
		memShare = clamp01(tMem/tExec)*0.85 + 0.1*globalFrac
	}
	res.StallMem = units.Clamp01(memShare)
	res.StallExec = units.Clamp01(dependencyFraction * (tCompute / math.Max(tExec, 1e-12)))
	pipeExcess := 0.0
	if tPipe > tIssue && pipeClass.IsCompute() {
		pipeExcess = (tPipe - tIssue) / tPipe
	}
	res.StallPipe = units.Clamp01(pipeExcess * (tCompute / math.Max(tExec, 1e-12)))
	res.StallSync = units.Clamp01(tSync / math.Max(tExec, 1e-12))
	normalizeStalls(&res)

	if d.counters != nil {
		d.counters.Add(telemetry.CtrLaunches, 1)
		d.counters.Add(telemetry.CtrWarpInstructions, int64(total))
	}
	if traced {
		d.tracer.Emit(telemetry.Event{
			Track: telemetry.TrackHost, Phase: telemetry.PhaseSpan,
			Name: spec.Name, Cat: "launch",
			Start: hostStart, Dur: telemetry.Now() - hostStart,
			Args: res.TelemetryArgs(),
		})
	}
	return res, nil
}

// TelemetryArgs carries a launch's identity and headline numbers into trace
// events (the gpu host-track span and the profiler's modeled-track span).
// Instruction intensity floors the transaction count at 1 — the same clamp
// KernelProfile.Metrics applies — because +Inf (zero-DRAM kernels) is
// unrepresentable in JSON.
func (r LaunchResult) TelemetryArgs() map[string]any {
	return map[string]any{
		"grid":           fmt.Sprintf("%dx%dx%d", r.Grid.X, r.Grid.Y, r.Grid.Z),
		"block":          fmt.Sprintf("%dx%dx%d", r.Block.X, r.Block.Y, r.Block.Z),
		"warp_insts":     r.Mix.Total(),
		"dram_txns":      uint64(r.Traffic.DRAMTxns),
		"modeled_ns":     r.Time.Nanos(),
		"gips":           r.GIPS,
		"inst_intensity": units.IntensityFloor1(units.WarpInsts(r.Mix.Total()), r.Traffic.DRAMTxns),
	}
}

// Attribution splits the launch's modeled time into the four top-down
// bottleneck categories (DRAM-bound, compute-bound, latency-bound, launch
// overhead) from its typed stall fields. The shares sum to 1 within
// telemetry.AttributionTol — CheckResult audits the identity.
func (r LaunchResult) Attribution() telemetry.BottleneckShares {
	return telemetry.AttributeStalls(r.Time, r.Overhead,
		r.StallMem, r.StallPipe, r.StallExec, r.StallSync)
}

// LaunchOverhead returns the fixed launch latency.
func (k KernelSpec) LaunchOverhead(c DeviceConfig) units.Seconds {
	return units.Seconds(c.LaunchOverheadNs * 1e-9)
}

func smEfficiency(c DeviceConfig, k KernelSpec, occ Occupancy) units.Fraction {
	blocks := k.Grid.Count()
	if blocks < c.NumSMs {
		return units.Ratio(float64(blocks), float64(c.NumSMs))
	}
	perWave := c.NumSMs * occ.BlocksPerSM
	waves := (blocks + perWave - 1) / perWave
	tail := blocks % perWave
	if tail == 0 {
		return 1
	}
	busySMs := (tail + occ.BlocksPerSM - 1) / occ.BlocksPerSM
	if busySMs > c.NumSMs {
		busySMs = c.NumSMs
	}
	idleShare := float64(c.NumSMs-busySMs) / float64(c.NumSMs) / float64(waves)
	return units.Clamp01(1 - idleShare)
}

func normalizeStalls(r *LaunchResult) {
	sum := r.StallExec + r.StallPipe + r.StallSync + r.StallMem
	if sum > 1 {
		r.StallExec /= sum
		r.StallPipe /= sum
		r.StallSync /= sum
		r.StallMem /= sum
	}
}

// clamp01 is the raw-float clamp used in model-internal stall math; typed
// results go through units.Clamp01 instead.
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
