package gpu

import (
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/memsim"
)

// TestConcurrentLaunchesOneDevice hammers a single shared device from many
// goroutines, mixing the stream-model path with the trace-replay path (the
// one that touches the mutex-guarded stateful cache hierarchy), and checks
// both paths stay deterministic. Run under -race this is the audit for the
// parallel-study code: workers each own a device, but Launch documents
// itself as concurrency-safe and this holds it to that.
// TestConcurrentReplayPoolMatchesSerial drives the per-launch replay pool the
// way a parallel study does: 8 goroutines share one device and replay
// *different* trace kernels, so pooled hierarchies are constantly recycled
// across access patterns. The summed traffic must equal a serial replay of
// the exact same launch set — any cross-launch state leak (a Reset that
// forgets a line, a pooled hierarchy shared by two launches at once) shows
// up as a traffic mismatch, and the sharing itself trips -race.
func TestConcurrentReplayPoolMatchesSerial(t *testing.T) {
	d := dev(t)

	var mix isa.Mix
	mix.Add(isa.FP32, 1<<12)
	mix.Add(isa.LoadGlobal, 1<<10)
	const goroutines = 8
	specs := make([]KernelSpec, goroutines)
	for g := range specs {
		stride := uint64(32 << (g % 4)) // varying locality per goroutine
		base := uint64(g) << 24
		specs[g] = KernelSpec{
			Name: "race_replay", Grid: D1(128), Block: D1(256), Mix: mix,
			TraceCoverage: 1,
			Trace: func(h *memsim.Hierarchy) {
				b := memsim.NewBatcher(h)
				for a := uint64(0); a < 1<<18; a += stride {
					b.Access(base + a)
				}
				b.Flush()
			},
		}
	}

	var want memsim.Traffic
	for _, spec := range specs {
		want.Add(d.MustLaunch(spec).Traffic)
	}

	var (
		mu  sync.Mutex
		got memsim.Traffic
		wg  sync.WaitGroup
	)
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(spec KernelSpec) {
			defer wg.Done()
			res, err := d.Launch(spec)
			if err != nil {
				errs <- err
				return
			}
			mu.Lock()
			got.Add(res.Traffic)
			mu.Unlock()
		}(specs[g])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("concurrent replay traffic %+v, serial %+v", got, want)
	}
}

func TestConcurrentLaunchesOneDevice(t *testing.T) {
	d := dev(t)

	var mix isa.Mix
	mix.Add(isa.FP32, 1<<16)
	mix.Add(isa.LoadGlobal, 1<<14)
	modelSpec := KernelSpec{
		Name: "race_model", Grid: D1(512), Block: D1(256), Mix: mix,
		Streams: []memsim.Stream{{
			Name: "s", FootprintBytes: 1 << 20, AccessBytes: 1 << 20,
			ElemBytes: 4, Pattern: memsim.Coalesced, Partitioned: true,
		}},
	}
	traceSpec := KernelSpec{
		Name: "race_trace", Grid: D1(512), Block: D1(256), Mix: mix,
		TraceCoverage: 1,
		Trace: func(h *memsim.Hierarchy) {
			for a := uint64(0); a < 1<<18; a += 128 {
				h.AccessBatch([]uint64{a})
			}
		},
	}

	wantModel := d.MustLaunch(modelSpec)
	wantTrace := d.MustLaunch(traceSpec)

	const goroutines, rounds = 8, 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds*2)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, want := range []struct {
					spec KernelSpec
					res  LaunchResult
				}{{modelSpec, wantModel}, {traceSpec, wantTrace}} {
					got, err := d.Launch(want.spec)
					if err != nil {
						errs <- err
						continue
					}
					if got.Time != want.res.Time || got.Traffic != want.res.Traffic {
						t.Errorf("%s: concurrent launch diverged: time %v vs %v, traffic %+v vs %+v",
							want.spec.Name, got.Time, want.res.Time, got.Traffic, want.res.Traffic)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
