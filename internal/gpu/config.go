// Package gpu implements the GPU performance model that stands in for the
// paper's Nvidia RTX 3080. Workloads describe kernel launches at
// warp-instruction granularity (instruction mix, memory streams or address
// traces, geometry); the device resolves memory traffic through
// internal/memsim and applies an interval-style timing model whose roofs are
// exactly the paper's: peak issue rate NumSMs x SchedulersPerSM x Clock
// (516.8 GIPS for the RTX 3080) and peak DRAM sector bandwidth
// BW / 32 bytes (23.76 GTXN/s).
package gpu

import (
	"fmt"

	"repro/internal/memsim"
)

// Dim3 is a CUDA-style 3-component dimension.
type Dim3 struct {
	X, Y, Z int
}

// D1 returns a 1-D dimension.
func D1(x int) Dim3 { return Dim3{x, 1, 1} }

// Count returns the total element count, treating zero components as 1.
func (d Dim3) Count() int {
	x, y, z := d.X, d.Y, d.Z
	if x <= 0 {
		x = 1
	}
	if y <= 0 {
		y = 1
	}
	if z <= 0 {
		z = 1
	}
	return x * y * z
}

// String renders the dimension CUDA-style.
func (d Dim3) String() string { return fmt.Sprintf("(%d,%d,%d)", d.X, d.Y, d.Z) }

// DeviceConfig describes a GPU. The defaults below (RTX3080) reproduce
// Table II of the paper.
type DeviceConfig struct {
	Name            string
	NumSMs          int
	SchedulersPerSM int     // warp schedulers per SM (issue width, warp insts/cycle)
	CoresPerSM      int     // CUDA cores per SM
	ClockGHz        float64 // boost clock used for the roofs
	DRAMBandwidth   float64 // GB/s
	DRAMBytes       uint64
	L2Bytes         int
	L1BytesPerSM    int
	RegistersPerSM  int
	MaxWarpsPerSM   int
	MaxBlocksPerSM  int
	WarpSize        int
	// LDSTPerSM is the number of load/store ports per SM (lanes servicing
	// one memory request each per cycle). Zero means the Ampere default of
	// 32 (one warp memory instruction per SM per cycle).
	LDSTPerSM int
	// LaunchOverheadNs is the fixed host->device launch latency added to
	// every kernel. It creates the latency-bound region of the roofline for
	// short kernels.
	LaunchOverheadNs float64
}

// RTX3080 returns the paper's evaluation platform (Table II): 68 SMs with
// 128 CUDA cores each at 1.9 GHz, 10 GB GDDR6X at 760 GB/s over a 320-bit
// bus, 5 MB L2, Ampere SM architecture.
func RTX3080() DeviceConfig {
	return DeviceConfig{
		Name:             "NVIDIA GeForce RTX 3080",
		NumSMs:           68,
		SchedulersPerSM:  4,
		CoresPerSM:       128,
		ClockGHz:         1.9,
		DRAMBandwidth:    760.3,
		DRAMBytes:        10 << 30,
		L2Bytes:          5 << 20,
		L1BytesPerSM:     128 << 10,
		RegistersPerSM:   64 << 10,
		MaxWarpsPerSM:    48,
		MaxBlocksPerSM:   16,
		WarpSize:         32,
		LDSTPerSM:        32,
		LaunchOverheadNs: 2500,
	}
}

// GTX1080 returns an older Pascal-class device, useful for cross-device
// sensitivity studies (the paper's future work evaluates across platforms).
func GTX1080() DeviceConfig {
	return DeviceConfig{
		Name:             "NVIDIA GeForce GTX 1080",
		NumSMs:           20,
		SchedulersPerSM:  4,
		CoresPerSM:       128,
		ClockGHz:         1.73,
		DRAMBandwidth:    320.0,
		DRAMBytes:        8 << 30,
		L2Bytes:          2 << 20,
		L1BytesPerSM:     48 << 10,
		RegistersPerSM:   64 << 10,
		MaxWarpsPerSM:    64,
		MaxBlocksPerSM:   32,
		WarpSize:         32,
		LDSTPerSM:        32,
		LaunchOverheadNs: 3500,
	}
}

// Validate reports configuration errors.
func (c DeviceConfig) Validate() error {
	switch {
	case c.NumSMs <= 0:
		return fmt.Errorf("gpu: %s: NumSMs=%d", c.Name, c.NumSMs)
	case c.SchedulersPerSM <= 0:
		return fmt.Errorf("gpu: %s: SchedulersPerSM=%d", c.Name, c.SchedulersPerSM)
	case c.ClockGHz <= 0:
		return fmt.Errorf("gpu: %s: ClockGHz=%g", c.Name, c.ClockGHz)
	case c.DRAMBandwidth <= 0:
		return fmt.Errorf("gpu: %s: DRAMBandwidth=%g", c.Name, c.DRAMBandwidth)
	case c.WarpSize != 32:
		return fmt.Errorf("gpu: %s: WarpSize=%d (model requires 32)", c.Name, c.WarpSize)
	case c.MaxWarpsPerSM <= 0 || c.MaxBlocksPerSM <= 0:
		return fmt.Errorf("gpu: %s: occupancy limits unset", c.Name)
	case c.LDSTPerSM < 0:
		return fmt.Errorf("gpu: %s: LDSTPerSM=%d", c.Name, c.LDSTPerSM)
	}
	return nil
}

// SPRate returns the FP32 pipe throughput in warp instructions per cycle
// per SM: CoresPerSM lanes each retiring one FMA per cycle, divided by the
// warp width (4 warp insts/cycle for a 128-core Ampere SM). An unset core
// count falls back to the Ampere default.
func (c DeviceConfig) SPRate() float64 {
	if c.CoresPerSM <= 0 || c.WarpSize <= 0 {
		return 4
	}
	return float64(c.CoresPerSM) / float64(c.WarpSize)
}

// LDSTRate returns the load/store pipe throughput in warp instructions per
// cycle per SM: LDSTPerSM ports over the warp width (1 warp memory inst per
// cycle for the Ampere default of 32 ports).
func (c DeviceConfig) LDSTRate() float64 {
	n := c.LDSTPerSM
	if n <= 0 {
		n = 32
	}
	if c.WarpSize <= 0 {
		return float64(n) / 32
	}
	return float64(n) / float64(c.WarpSize)
}

// PeakGIPS returns the peak warp-instruction issue rate in Giga warp
// instructions per second: NumSMs x SchedulersPerSM x 1 inst/cycle x Clock.
// For the RTX 3080 this is 68 x 4 x 1.9 = 516.8 GIPS, matching the paper.
func (c DeviceConfig) PeakGIPS() float64 {
	return float64(c.NumSMs) * float64(c.SchedulersPerSM) * c.ClockGHz
}

// PeakGTXN returns the peak DRAM sector bandwidth in Giga 32-byte
// transactions per second (23.76 GTXN/s for the RTX 3080).
func (c DeviceConfig) PeakGTXN() float64 {
	return c.DRAMBandwidth / float64(memsim.SectorBytes)
}

// ElbowII returns the roofline elbow: the instruction intensity (warp
// instructions per DRAM transaction) where the memory roof meets the compute
// roof (21.76 for the RTX 3080).
func (c DeviceConfig) ElbowII() float64 {
	return c.PeakGIPS() / c.PeakGTXN()
}

// L1Config returns the memsim configuration of one SM's L1.
func (c DeviceConfig) L1Config() memsim.CacheConfig {
	return memsim.CacheConfig{Name: "L1", SizeBytes: c.L1BytesPerSM, Assoc: 4}
}

// L2Config returns the memsim configuration of the device L2.
func (c DeviceConfig) L2Config() memsim.CacheConfig {
	return memsim.CacheConfig{Name: "L2", SizeBytes: c.L2Bytes, Assoc: 16}
}
