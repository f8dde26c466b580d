package gpu

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/isa"
	"repro/internal/memsim"
)

// KernelSpec describes one kernel launch to the device model. Workload code
// derives every field from its live data structures, so launch sequences are
// input-dependent — the property the paper's Observation #3 highlights.
type KernelSpec struct {
	// Name identifies the kernel; launches with equal names aggregate into
	// one "kernel" in the paper's sense (ri invocations of kernel i).
	Name string
	// Grid and Block give the launch geometry (blocks, threads per block).
	Grid, Block Dim3

	// Mix is the launch's total warp-instruction histogram.
	Mix isa.Mix

	// Streams declaratively describe global-memory traffic (model mode).
	Streams []memsim.Stream
	// Trace, when non-nil, holds the launch's sampled sector-load byte
	// addresses in issue order, which the cache simulator replays (trace
	// mode). Workloads with data-dependent locality supply one.
	// TraceCoverage gives the fraction of the launch's traffic the trace
	// represents; resolved traffic is scaled by its inverse. Both Streams
	// and Trace may be present; their traffic adds.
	//
	// The spec borrows Trace only while the launch that prices it runs:
	// an emitter may refill the same buffer for its next launch, so code
	// that keeps a spec past its launch keeps slices.Clone(Trace).
	Trace         []uint64
	TraceCoverage float64

	// DivergenceFraction is the fraction of issue slots lost to branch
	// divergence and predication (0 = fully converged).
	DivergenceFraction float64
}

// regsPerThread is the register demand every kernel is modeled with. The
// model has no per-kernel register or shared-memory demand, so registers
// and warps are the only occupancy limiters besides the block cap.
const regsPerThread = 32

// dependencyFraction is the fraction of issue slots in which the oldest
// ready warp stalls on a register dependency (a moderate, low-ILP share),
// the same for every kernel.
const dependencyFraction = 0.15

// FixedPrefix marks streams over fixed-size structures (model weights,
// lookup trees). Replication models larger activations, batches and graphs
// at reference scale, but such structures only grow with the much smaller
// channel-count increase, so they scale by sqrt(R) rather than R.
const FixedPrefix = "w:"

// Replicated builds the spec of one launch of a reduced-scale kernel,
// extrapolated to reference scale by the replication factor r. It is the
// one scaling rule every workload family uses, so suites compare at the
// same scale:
//   - the mix scales by r;
//   - the thread count scales by r, in blocks of block threads
//     (grid = ceil(threads*r/block), at least 1);
//   - stream bytes scale by r, or by sqrt(r) for FixedPrefix streams,
//     floored at 1 byte.
func Replicated(name string, threads, block int, r float64, mix isa.Mix, streams []memsim.Stream, div float64) KernelSpec {
	scaled := make([]memsim.Stream, len(streams))
	for i, s := range streams {
		sr := r
		if strings.HasPrefix(s.Name, FixedPrefix) {
			sr = math.Sqrt(r)
		}
		s.FootprintBytes = max(uint64(float64(s.FootprintBytes)*sr), 1)
		s.AccessBytes = max(uint64(float64(s.AccessBytes)*sr), 1)
		scaled[i] = s
	}
	return KernelSpec{
		Name:               name,
		Grid:               D1(max((int(float64(threads)*r)+block-1)/block, 1)),
		Block:              D1(block),
		Mix:                mix.Scale(r),
		Streams:            scaled,
		DivergenceFraction: div,
	}
}

// Validate reports spec construction errors.
func (k KernelSpec) Validate() error {
	if k.Name == "" {
		return fmt.Errorf("gpu: kernel with empty name")
	}
	if k.Grid.Count() <= 0 || k.Block.Count() <= 0 {
		return fmt.Errorf("gpu: kernel %s: empty geometry grid=%v block=%v", k.Name, k.Grid, k.Block)
	}
	if k.Block.Count() > 1024 {
		return fmt.Errorf("gpu: kernel %s: block size %d exceeds 1024", k.Name, k.Block.Count())
	}
	if k.Mix.Total() == 0 {
		return fmt.Errorf("gpu: kernel %s: empty instruction mix", k.Name)
	}
	if k.DivergenceFraction < 0 || k.DivergenceFraction >= 1 {
		return fmt.Errorf("gpu: kernel %s: divergence fraction %g out of [0,1)", k.Name, k.DivergenceFraction)
	}
	if k.Trace != nil && (k.TraceCoverage <= 0 || k.TraceCoverage > 1) {
		return fmt.Errorf("gpu: kernel %s: trace coverage %g out of (0,1]", k.Name, k.TraceCoverage)
	}
	for _, s := range k.Streams {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("gpu: kernel %s: %w", k.Name, err)
		}
	}
	return nil
}

// Occupancy describes how many blocks/warps of a kernel fit on one SM.
type Occupancy struct {
	BlocksPerSM int
	WarpsPerSM  int
	// Achieved is the average number of active warps per SM over the launch,
	// accounting for grids too small to fill the device.
	Achieved float64
}

// theoreticalLimit computes the raw per-SM block limit for k on c and the
// limiting resource, without flooring: a block whose warp or register
// demand exceeds the SM budget yields limit 0 — the kernel has zero
// theoretical occupancy and could never launch on real hardware.
// CheckSpec reports that, failing the launch in profiler.Session.Launch;
// occupancyOf floors it at 1 so the timing model stays defined.
func theoreticalLimit(c DeviceConfig, k KernelSpec) (limit int, limiter string) {
	warpsPerBlock := (k.Block.Count() + 31) / 32

	limit = c.MaxBlocksPerSM
	limiter = "blocks"
	if byWarps := c.MaxWarpsPerSM / warpsPerBlock; byWarps < limit {
		limit, limiter = byWarps, "warps"
	}
	if regsPerBlock := regsPerThread * k.Block.Count(); regsPerBlock > 0 {
		if byRegs := c.RegistersPerSM / regsPerBlock; byRegs < limit {
			limit, limiter = byRegs, "registers"
		}
	}
	return limit, limiter
}

// occupancyOf computes theoretical and achieved occupancy for spec on c.
func occupancyOf(c DeviceConfig, k KernelSpec) Occupancy {
	warpsPerBlock := (k.Block.Count() + 31) / 32
	limit, _ := theoreticalLimit(c, k)
	limit = max(limit, 1)

	o := Occupancy{
		BlocksPerSM: limit,
		WarpsPerSM:  limit * warpsPerBlock,
	}

	// Achieved occupancy: distribute grid blocks over SMs in waves.
	totalBlocks := k.Grid.Count()
	perDeviceWave := c.NumSMs * limit
	fullWaves := totalBlocks / perDeviceWave
	tail := totalBlocks % perDeviceWave
	// Average active warps per SM, weighted by wave duration (each wave is
	// assumed equally long; the tail wave only partially fills SMs).
	waves := float64(fullWaves)
	active := waves * float64(o.WarpsPerSM)
	if tail > 0 {
		active += float64(tail) * float64(warpsPerBlock) / float64(c.NumSMs)
		waves++
	}
	if waves == 0 {
		waves = 1
	}
	o.Achieved = active / waves
	if o.Achieved > float64(c.MaxWarpsPerSM) {
		o.Achieved = float64(c.MaxWarpsPerSM)
	}
	return o
}
