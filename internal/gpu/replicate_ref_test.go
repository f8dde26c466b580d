package gpu

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/memsim"
)

// The four per-family launch helpers that Replicated replaced, kept
// verbatim except that each returns its spec instead of launching it.
// Block size, prefix and replication factor come in as the helpers'
// package context (a constant, a field, or a config method) did.

// refNNEmit is nn.Device.emit.
func refNNEmit(r float64, name string, threads int, mix isa.Mix, streams []memsim.Stream, div float64) KernelSpec {
	const weightPrefix = "w:"
	scaled := make([]memsim.Stream, len(streams))
	for i, s := range streams {
		sr := r
		if strings.HasPrefix(s.Name, weightPrefix) {
			sr = math.Sqrt(r)
		}
		s.FootprintBytes = uint64(float64(s.FootprintBytes) * sr)
		s.AccessBytes = uint64(float64(s.AccessBytes) * sr)
		if s.FootprintBytes == 0 {
			s.FootprintBytes = 1
		}
		if s.AccessBytes == 0 {
			s.AccessBytes = 1
		}
		scaled[i] = s
	}
	block := 256
	grid := (int(float64(threads)*r) + block - 1) / block
	if grid < 1 {
		grid = 1
	}
	return KernelSpec{
		Name:               name,
		Grid:               D1(grid),
		Block:              D1(block),
		Mix:                mix.Scale(r),
		Streams:            scaled,
		DivergenceFraction: div,
	}
}

// refSuitesLaunch is suites.Emitter.Launch (the mix already built).
func refSuitesLaunch(r float64, name string, threads int, mix isa.Mix, streams []memsim.Stream, div float64) KernelSpec {
	const FixedPrefix = "w:"
	scaled := make([]memsim.Stream, len(streams))
	for i, s := range streams {
		sr := r
		if strings.HasPrefix(s.Name, FixedPrefix) {
			sr = math.Sqrt(r)
		}
		s.FootprintBytes = uint64(float64(s.FootprintBytes) * sr)
		s.AccessBytes = uint64(float64(s.AccessBytes) * sr)
		scaled[i] = s
	}
	block := 256
	grid := (int(float64(threads)*r) + block - 1) / block
	if grid < 1 {
		grid = 1
	}
	return KernelSpec{
		Name:               name,
		Grid:               D1(grid),
		Block:              D1(block),
		Mix:                mix.Scale(r),
		Streams:            scaled,
		DivergenceFraction: div,
	}
}

// refMDLaunch is md.Engine.launch.
func refMDLaunch(r float64, name string, threads int, mix isa.Mix, streams []memsim.Stream, div float64) KernelSpec {
	scaled := make([]memsim.Stream, len(streams))
	for i, s := range streams {
		s.FootprintBytes = uint64(float64(s.FootprintBytes) * r)
		s.AccessBytes = uint64(float64(s.AccessBytes) * r)
		scaled[i] = s
	}
	block := 128
	grid := (int(float64(threads)*r) + block - 1) / block
	if grid < 1 {
		grid = 1
	}
	return KernelSpec{
		Name:               name,
		Grid:               D1(grid),
		Block:              D1(block),
		Mix:                mix.Scale(r),
		Streams:            scaled,
		DivergenceFraction: div,
	}
}

// refGraphxLaunch is graphx.bfsEmitter.launch; r is the integer
// BFSConfig.replication().
func refGraphxLaunch(r int, name string, threads int, mix isa.Mix, streams []memsim.Stream, trace []uint64, coverage, div float64) KernelSpec {
	if r > 1 {
		mix = mix.Scale(float64(r))
		scaled := make([]memsim.Stream, len(streams))
		for i, s := range streams {
			s.FootprintBytes *= uint64(r)
			s.AccessBytes *= uint64(r)
			scaled[i] = s
		}
		streams = scaled
		threads *= r
		// The trace replays a 1/r tile of the launch's accesses.
		coverage /= float64(r)
	}
	block := 256
	grid := (threads + block - 1) / block
	if grid < 1 {
		grid = 1
	}
	spec := KernelSpec{
		Name:               name,
		Grid:               D1(grid),
		Block:              D1(block),
		Mix:                mix,
		Streams:            streams,
		DivergenceFraction: div,
	}
	if trace != nil {
		spec.Trace = trace
		spec.TraceCoverage = coverage
	}
	return spec
}

// specDiff describes the first difference between two specs, or returns ""
// when they are equal. A nil and an empty stream list are equal (both
// describe no declarative traffic).
func specDiff(got, want KernelSpec) string {
	if len(got.Streams) != len(want.Streams) {
		return fmt.Sprintf("%d streams, want %d", len(got.Streams), len(want.Streams))
	}
	for i := range got.Streams {
		if got.Streams[i] != want.Streams[i] {
			return fmt.Sprintf("stream %d = %+v, want %+v", i, got.Streams[i], want.Streams[i])
		}
	}
	got.Streams, want.Streams = nil, nil
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		return fmt.Sprintf("spec %+v, want %+v", got, want)
	}
	return ""
}

// TestReplicatedMatchesReferences pins Replicated to each replaced helper
// over the inputs that helper received: every factor, thread count and
// stream shape below, at the helper's own block size. md and graphx never
// named a stream with FixedPrefix and graphx only took integer factors,
// so those references see only the inputs they could. Zero-byte streams
// are compared against the nn reference alone: it is the only helper
// that floored them, and no other family emits one.
func TestReplicatedMatchesReferences(t *testing.T) {
	var mix isa.Mix
	mix.Add(isa.FP32, 1)
	mix.Add(isa.INT, 7)
	mix.Add(isa.LoadGlobal, 1000)
	mix.Add(isa.Misc, 123456789)

	streamSets := func(prefix string) [][]memsim.Stream {
		st := func(name string, footprint, access uint64) memsim.Stream {
			return memsim.Stream{Name: prefix + name, FootprintBytes: footprint, AccessBytes: access,
				ElemBytes: 4, Pattern: memsim.Coalesced, Partitioned: true}
		}
		return [][]memsim.Stream{
			nil,
			{st("in", 4096, 8192)},
			{st("a", 1, 1), st("b", 3, 7), st("c", 1<<30, 3<<30)},
		}
	}
	zeroBytes := [][]memsim.Stream{
		{{Name: "empty", ElemBytes: 4, Pattern: memsim.Coalesced}},
		{{Name: "w:empty", AccessBytes: 64, ElemBytes: 4, Pattern: memsim.Random}},
	}
	probe := []uint64{0x1000}

	check := func(t *testing.T, ref string, got, want KernelSpec) {
		t.Helper()
		if d := specDiff(got, want); d != "" {
			t.Errorf("%s: %s", ref, d)
		}
	}
	for _, r := range []float64{1, 1.5, 20, 24, 48} {
		for _, threads := range []int{0, 1, 31, 256, 1 << 20} {
			for _, prefix := range []string{"", FixedPrefix} {
				for _, streams := range streamSets(prefix) {
					t.Run(fmt.Sprintf("r=%g/threads=%d/prefix=%q/streams=%d", r, threads, prefix, len(streams)), func(t *testing.T) {
						check(t, "nn", Replicated("k", threads, 256, r, mix, streams, 0.1),
							refNNEmit(r, "k", threads, mix, streams, 0.1))
						check(t, "suites", Replicated("k", threads, 256, r, mix, streams, 0.1),
							refSuitesLaunch(r, "k", threads, mix, streams, 0.1))
						if prefix == FixedPrefix {
							return
						}
						check(t, "md", Replicated("k", threads, 128, r, mix, streams, 0.1),
							refMDLaunch(r, "k", threads, mix, streams, 0.1))
						if r != math.Trunc(r) {
							return
						}
						for _, trace := range [][]uint64{nil, probe} {
							got := Replicated("k", threads, 256, r, mix, streams, 0.1)
							if trace != nil {
								got.Trace, got.TraceCoverage = trace, 0.75/r
							}
							check(t, "graphx", got, refGraphxLaunch(int(r), "k", threads, mix, streams, trace, 0.75, 0.1))
						}
					})
				}
			}
			for _, streams := range zeroBytes {
				check(t, "nn zero-byte", Replicated("k", threads, 256, r, mix, streams, 0),
					refNNEmit(r, "k", threads, mix, streams, 0))
			}
		}
	}
}
