package gpu

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

// validSpec returns a kernel spec that passes every CheckSpec rule on the
// RTX 3080: 256-thread blocks, modest shared memory, default registers.
func validSpec() KernelSpec {
	var mix isa.Mix
	mix[isa.FP32] = 1000
	mix[isa.LoadGlobal] = 100
	return KernelSpec{
		Name:              "k",
		Grid:              D1(1024),
		Block:             D1(256),
		Mix:               mix,
		SharedMemPerBlock: 4 << 10,
	}
}

func TestDeviceConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*DeviceConfig)
		wantErr string // "" means valid
	}{
		{"rtx3080", func(c *DeviceConfig) {}, ""},
		{"gtx1080", func(c *DeviceConfig) { *c = GTX1080() }, ""},
		{"zero-sms", func(c *DeviceConfig) { c.NumSMs = 0 }, "NumSMs"},
		{"negative-schedulers", func(c *DeviceConfig) { c.SchedulersPerSM = -1 }, "SchedulersPerSM"},
		{"zero-clock", func(c *DeviceConfig) { c.ClockGHz = 0 }, "ClockGHz"},
		{"zero-bandwidth", func(c *DeviceConfig) { c.DRAMBandwidth = 0 }, "DRAMBandwidth"},
		{"odd-warp-size", func(c *DeviceConfig) { c.WarpSize = 16 }, "WarpSize"},
		{"no-occupancy-limits", func(c *DeviceConfig) { c.MaxWarpsPerSM = 0 }, "occupancy limits"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := RTX3080()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tt.wantErr)
			}
		})
	}
}

func TestTheoreticalLimit(t *testing.T) {
	cfg := RTX3080()
	tests := []struct {
		name        string
		mutate      func(*KernelSpec)
		wantLimit   int
		wantLimiter string
	}{
		// 256 threads = 8 warps: 48/8 = 6 blocks by warps, under the
		// 16-block and shared/register budgets.
		{"warp-limited", func(k *KernelSpec) {}, 6, "warps"},
		// 32-thread blocks: 48 by warps, 16 by MaxBlocksPerSM.
		{"block-limited", func(k *KernelSpec) { k.Block = D1(32); k.SharedMemPerBlock = 0 }, 16, "blocks"},
		// 40 KiB shared per block: 100 KiB / 40 KiB = 2 blocks.
		{"shared-limited", func(k *KernelSpec) { k.SharedMemPerBlock = 40 << 10 }, 2, "shared memory"},
		// 128 regs x 256 threads = 32 Ki regs per block: 64 Ki / 32 Ki = 2.
		{"register-limited", func(k *KernelSpec) { k.RegsPerThread = 128; k.SharedMemPerBlock = 0 }, 2, "registers"},
		// Demand over budget: the raw limit is 0, not floored.
		{"zero-by-shared", func(k *KernelSpec) { k.SharedMemPerBlock = cfg.SharedPerSM + 1 }, 0, "shared memory"},
		{"zero-by-registers", func(k *KernelSpec) { k.RegsPerThread = 512; k.SharedMemPerBlock = 0 }, 0, "registers"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			k := validSpec()
			tt.mutate(&k)
			limit, limiter := theoreticalLimit(cfg, k)
			if limit != tt.wantLimit || limiter != tt.wantLimiter {
				t.Fatalf("theoreticalLimit = (%d, %q), want (%d, %q)",
					limit, limiter, tt.wantLimit, tt.wantLimiter)
			}
		})
	}
}

// TestOccupancyFloorsZeroLimit checks the timing-model contract: a spec with
// zero theoretical occupancy still simulates (floored to one block per SM)
// but the limiter is marked over budget, and CheckSpec reports it statically.
func TestOccupancyFloorsZeroLimit(t *testing.T) {
	cfg := RTX3080()
	k := validSpec()
	k.SharedMemPerBlock = cfg.SharedPerSM + 1

	o := occupancyOf(cfg, k)
	if o.BlocksPerSM != 1 {
		t.Errorf("BlocksPerSM = %d, want floor of 1", o.BlocksPerSM)
	}
	if !strings.Contains(o.Limiter, "over budget") {
		t.Errorf("Limiter = %q, want it marked over budget", o.Limiter)
	}
}

func TestCheckSpec(t *testing.T) {
	cfg := RTX3080()
	tests := []struct {
		name      string
		mutate    func(*KernelSpec)
		wantRules []string // exact set, order-sensitive per CheckSpec
	}{
		{"clean", func(k *KernelSpec) {}, nil},
		{"zero-grid-dim", func(k *KernelSpec) { k.Grid = Dim3{0, 1, 1} }, []string{"grid"}},
		{"negative-block-dim", func(k *KernelSpec) { k.Block = Dim3{-1, 1, 1} }, []string{"block", "block-warp"}},
		{"partial-warp", func(k *KernelSpec) { k.Block = D1(100) }, []string{"block-warp"}},
		// 2048 threads = 64 warps per block: over the 1024 limit AND over the
		// 48-warp SM budget, so the occupancy rule fires too.
		{"block-too-big", func(k *KernelSpec) { k.Block = D1(2048) }, []string{"validate", "block-limit", "occupancy"}},
		{"shared-overflow", func(k *KernelSpec) { k.SharedMemPerBlock = cfg.SharedPerSM + 1 },
			[]string{"shared-mem", "occupancy"}},
		// 512 regs x 256 threads = 128Ki registers: over the 64Ki file, so
		// not even one block fits and the occupancy rule fires too.
		{"zero-occupancy-registers", func(k *KernelSpec) { k.RegsPerThread = 512 },
			[]string{"reg-file", "occupancy"}},
		{"empty-mix", func(k *KernelSpec) { k.Mix = isa.Mix{} }, []string{"validate"}},
		{"grid-x-over-limit", func(k *KernelSpec) { k.Grid = Dim3{1 << 31, 1, 1} }, []string{"grid-limit"}},
		{"grid-y-over-limit", func(k *KernelSpec) { k.Grid = Dim3{1, 65536, 1} }, []string{"grid-limit"}},
		{"grid-z-over-limit", func(k *KernelSpec) { k.Grid = Dim3{1, 1, 65536} }, []string{"grid-limit"}},
		{"grid-at-limit", func(k *KernelSpec) { k.Grid = Dim3{1<<31 - 1, 1, 1} }, nil},
		// Every dimension is positive but X*Y*Z wraps on 64-bit int: the
		// total block count must stay positive.
		{"grid-count-overflow", func(k *KernelSpec) { k.Grid = Dim3{1 << 31, 1 << 31, 4} },
			[]string{"validate", "grid-limit", "grid-count"}},
		// 64 regs x 1024 threads = 64Ki fills the file exactly: legal.
		{"reg-file-exact", func(k *KernelSpec) { k.RegsPerThread = 64; k.Block = D1(1024) }, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			k := validSpec()
			tt.mutate(&k)
			issues := CheckSpec(cfg, k)
			var rules []string
			for _, i := range issues {
				rules = append(rules, i.Rule)
			}
			if len(rules) != len(tt.wantRules) {
				t.Fatalf("CheckSpec rules = %v, want %v (issues: %v)", rules, tt.wantRules, issues)
			}
			for i := range rules {
				if rules[i] != tt.wantRules[i] {
					t.Fatalf("CheckSpec rules = %v, want %v (issues: %v)", rules, tt.wantRules, issues)
				}
			}
		})
	}
}
