package gpu

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

// validSpec returns a kernel spec that passes every CheckSpec rule on the
// RTX 3080: 256-thread blocks.
func validSpec() KernelSpec {
	var mix isa.Mix
	mix[isa.FP32] = 1000
	mix[isa.LoadGlobal] = 100
	return KernelSpec{
		Name:  "k",
		Grid:  D1(1024),
		Block: D1(256),
		Mix:   mix,
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
	tests := []struct {
		name        string
		mutate      func(*KernelSpec, *DeviceConfig)
		wantLimit   int
		wantLimiter string
	}{
		// 256 threads = 8 warps: 48/8 = 6 blocks by warps, under the
		// 16-block and register budgets.
		{"warp-limited", func(k *KernelSpec, c *DeviceConfig) {}, 6, "warps"},
		// 32-thread blocks: 48 by warps, 16 by MaxBlocksPerSM.
		{"block-limited", func(k *KernelSpec, c *DeviceConfig) { k.Block = D1(32) }, 16, "blocks"},
		// 32 regs x 256 threads = 8 Ki regs per block: a 16 Ki file holds 2.
		{"register-limited", func(k *KernelSpec, c *DeviceConfig) { c.RegistersPerSM = 16 << 10 }, 2, "registers"},
		// Demand over budget: the raw limit is 0, not floored.
		{"zero-by-warps", func(k *KernelSpec, c *DeviceConfig) { k.Block = D1(2048) }, 0, "warps"},
		{"zero-by-registers", func(k *KernelSpec, c *DeviceConfig) { c.RegistersPerSM = 8<<10 - 1 }, 0, "registers"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			k, cfg := validSpec(), RTX3080()
			tt.mutate(&k, &cfg)
			limit, limiter := theoreticalLimit(cfg, k)
			if limit != tt.wantLimit || limiter != tt.wantLimiter {
				t.Fatalf("theoreticalLimit = (%d, %q), want (%d, %q)",
					limit, limiter, tt.wantLimit, tt.wantLimiter)
			}
		})
	}
}

// TestOccupancyFloorsZeroLimit checks the timing-model contract: a spec with
// zero theoretical occupancy still simulates, floored to one block per SM;
// CheckSpec reports it statically.
func TestOccupancyFloorsZeroLimit(t *testing.T) {
	cfg := RTX3080()
	k := validSpec()
	k.Block = D1(2048)

	if o := occupancyOf(cfg, k); o.BlocksPerSM != 1 {
		t.Errorf("BlocksPerSM = %d, want floor of 1", o.BlocksPerSM)
	}
}

func TestCheckSpec(t *testing.T) {
	tests := []struct {
		name      string
		mutate    func(*KernelSpec, *DeviceConfig)
		wantRules []string // exact set, order-sensitive per CheckSpec
	}{
		{"clean", func(k *KernelSpec, c *DeviceConfig) {}, nil},
		{"zero-grid-dim", func(k *KernelSpec, c *DeviceConfig) { k.Grid = Dim3{0, 1, 1} }, []string{"grid"}},
		{"negative-block-dim", func(k *KernelSpec, c *DeviceConfig) { k.Block = Dim3{-1, 1, 1} }, []string{"block", "block-warp"}},
		{"partial-warp", func(k *KernelSpec, c *DeviceConfig) { k.Block = D1(100) }, []string{"block-warp"}},
		// 2048 threads = 64 warps per block: over the 1024 limit AND over the
		// 48-warp SM budget, so the occupancy rule fires too.
		{"block-too-big", func(k *KernelSpec, c *DeviceConfig) { k.Block = D1(2048) }, []string{"validate", "block-limit", "occupancy"}},
		// 32 regs x 4096 threads = 128Ki registers: over the 64Ki file too.
		{"block-over-reg-file", func(k *KernelSpec, c *DeviceConfig) { k.Block = D1(4096) },
			[]string{"validate", "block-limit", "reg-file", "occupancy"}},
		// 32 regs x 256 threads = 8Ki registers: over an 8Ki-1 file, so not
		// even one block fits and the occupancy rule fires too.
		{"zero-occupancy-registers", func(k *KernelSpec, c *DeviceConfig) { c.RegistersPerSM = 8<<10 - 1 },
			[]string{"reg-file", "occupancy"}},
		{"empty-mix", func(k *KernelSpec, c *DeviceConfig) { k.Mix = isa.Mix{} }, []string{"validate"}},
		{"grid-x-over-limit", func(k *KernelSpec, c *DeviceConfig) { k.Grid = Dim3{1 << 31, 1, 1} }, []string{"grid-limit"}},
		{"grid-y-over-limit", func(k *KernelSpec, c *DeviceConfig) { k.Grid = Dim3{1, 65536, 1} }, []string{"grid-limit"}},
		{"grid-z-over-limit", func(k *KernelSpec, c *DeviceConfig) { k.Grid = Dim3{1, 1, 65536} }, []string{"grid-limit"}},
		{"grid-at-limit", func(k *KernelSpec, c *DeviceConfig) { k.Grid = Dim3{1<<31 - 1, 1, 1} }, nil},
		// Every dimension is positive but X*Y*Z wraps on 64-bit int: the
		// total block count must stay positive.
		{"grid-count-overflow", func(k *KernelSpec, c *DeviceConfig) { k.Grid = Dim3{1 << 31, 1 << 31, 4} },
			[]string{"validate", "grid-limit", "grid-count"}},
		// 32 regs x 1024 threads = 32Ki fills a 32Ki file exactly: legal.
		{"reg-file-exact", func(k *KernelSpec, c *DeviceConfig) { k.Block = D1(1024); c.RegistersPerSM = 32 << 10 }, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			k, cfg := validSpec(), RTX3080()
			tt.mutate(&k, &cfg)
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
