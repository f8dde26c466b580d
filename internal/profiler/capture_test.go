package profiler_test

import (
	"reflect"
	"testing"

	"repro/internal/gpu"
	"repro/internal/graphx"
	"repro/internal/profiler"
	"repro/internal/workloads"
)

// TestCapturedSpecsPriceLikeLive records a workload's spec stream on a
// device-less session, prices every captured spec through a checked
// session, and requires each result to equal the live run's launch on the
// same device. The launch stream depends on the input, not on the device,
// so a captured stream must price the same as a live run: a spec that
// still reads emitter state when it is priced (a later BFS level's
// labels, or a trace buffer the next launch refilled) fails here. GST
// covers both traced BFS kernels, the push advance and the bottom-up
// expand; GRU, push-only, is priced on one device.
func TestCapturedSpecsPriceLikeLive(t *testing.T) {
	for _, c := range []struct {
		w       workloads.Workload
		devices []gpu.DeviceConfig
	}{
		{graphx.SocialBFS(), []gpu.DeviceConfig{gpu.RTX3080(), gpu.GTX1080()}},
		{graphx.RoadBFS(), []gpu.DeviceConfig{gpu.RTX3080()}},
	} {
		t.Run(c.w.Abbr(), func(t *testing.T) {
			capture := profiler.NewSession(nil)
			if err := c.w.Run(capture); err != nil {
				t.Fatal(err)
			}
			specs := capture.Specs()
			for _, cfg := range c.devices {
				t.Run(cfg.Name, func(t *testing.T) {
					dev, err := gpu.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					live := profiler.NewSession(dev)
					if err := c.w.Run(live); err != nil {
						t.Fatal(err)
					}
					if err := live.Err(); err != nil {
						t.Fatal(err)
					}
					want := live.Launches()
					if len(specs) != len(want) {
						t.Fatalf("captured %d specs, live run launched %d", len(specs), len(want))
					}
					priced := profiler.NewSession(dev)
					for i, spec := range specs {
						got, err := priced.Launch(spec)
						if err != nil {
							t.Fatalf("launch %d: %v", i, err)
						}
						if !reflect.DeepEqual(got, want[i]) {
							t.Fatalf("launch %d (%s) of %d: captured spec prices to %+v, live launch %+v",
								i, spec.Name, len(specs), got, want[i])
						}
					}
				})
			}
		})
	}
}
