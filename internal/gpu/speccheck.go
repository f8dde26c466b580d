package gpu

import "fmt"

// CheckSpec statically validates k against c's limits (the paper's Table II
// for the RTX 3080) without running the simulation: a launch the real GPU
// would reject or cripple even though the model would happily price it. It
// reports:
//
//   - validate: anything KernelSpec.Validate rejects (empty mix, bad
//     geometry, out-of-range fractions)
//   - grid: a grid dimension that is zero or negative — Dim3.Count floors
//     such components to 1, so the model silently "fixes" a spec real
//     hardware would reject
//   - grid-limit: a grid dimension above the CUDA launch limits (X at most
//     2³¹−1, Y and Z at most 65535) — cudaLaunchKernel rejects these with
//     "invalid configuration argument"
//   - grid-count: a total block count that is not positive even though
//     every dimension is (integer overflow in X·Y·Z)
//   - block: a block dimension that is zero or negative (same floor)
//   - block-warp: a block size that is not a multiple of WarpSize; the
//     trailing partial warp wastes lanes on every block
//   - block-limit: more threads per block than the device schedules
//   - reg-file: one block's register demand (the model's 32 registers per
//     thread × block size) exceeding the SM register file — the launch
//     would fail with "too many resources requested"
//   - occupancy: zero theoretical occupancy (warp or register demand means
//     not even one block fits on an SM)
func CheckSpec(c DeviceConfig, k KernelSpec) []Issue {
	var issues []Issue
	add := func(rule, format string, args ...any) {
		issues = append(issues, Issue{Rule: rule, Detail: fmt.Sprintf(format, args...)})
	}

	if err := k.Validate(); err != nil {
		add("validate", "%v", err)
	}
	if k.Grid.X <= 0 || k.Grid.Y <= 0 || k.Grid.Z <= 0 {
		add("grid", "grid %v has a dimension < 1", k.Grid)
	}
	const (
		maxGridX  = 1<<31 - 1
		maxGridYZ = 65535
	)
	if k.Grid.X > maxGridX || k.Grid.Y > maxGridYZ || k.Grid.Z > maxGridYZ {
		add("grid-limit", "grid %v exceeds the CUDA launch limits (%d, %d, %d)",
			k.Grid, maxGridX, maxGridYZ, maxGridYZ)
	}
	if k.Grid.X > 0 && k.Grid.Y > 0 && k.Grid.Z > 0 && k.Grid.Count() <= 0 {
		add("grid-count", "grid %v has a non-positive total block count %d (integer overflow)",
			k.Grid, k.Grid.Count())
	}
	if k.Block.X <= 0 || k.Block.Y <= 0 || k.Block.Z <= 0 {
		add("block", "block %v has a dimension < 1", k.Block)
	}

	block := k.Block.Count()
	if c.WarpSize > 0 && block%c.WarpSize != 0 {
		add("block-warp", "block size %d is not a multiple of WarpSize %d; the trailing partial warp wastes %d lanes per block",
			block, c.WarpSize, c.WarpSize-block%c.WarpSize)
	}
	if maxThreads := c.MaxWarpsPerSM * c.WarpSize; block > 1024 || (maxThreads > 0 && block > maxThreads) {
		limit := 1024
		if maxThreads > 0 && maxThreads < limit {
			limit = maxThreads
		}
		add("block-limit", "block size %d exceeds the device limit of %d threads per block", block, limit)
	}
	if c.RegistersPerSM > 0 && block > 0 && regsPerThread*block > c.RegistersPerSM {
		add("reg-file", "register demand %d (%d regs/thread x %d threads) exceeds the %d-register file; the launch would fail on %s",
			regsPerThread*block, regsPerThread, block, c.RegistersPerSM, c.Name)
	}
	if limit, limiter := theoreticalLimit(c, k); limit < 1 {
		add("occupancy", "zero theoretical occupancy: %s demand means not even one block fits on an SM", limiter)
	}
	return issues
}
