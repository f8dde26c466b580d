// Package suites provides the shared scaffolding for the baseline benchmark
// suites the paper compares Cactus against (Table III): Parboil, Rodinia,
// and Tango. Each benchmark is a real (reduced-scale) computation whose one
// or few kernels are launched with counts derived from the work performed —
// reproducing the bottom-up, kernel-centric structure the paper's Figure 2
// and Figure 4 characterize.
package suites

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/memsim"
	"repro/internal/profiler"
	"repro/internal/workloads"
)

// Bench is one baseline benchmark.
type Bench struct {
	BenchName   string
	BenchAbbr   string
	BenchSuite  workloads.Suite
	BenchDomain workloads.Domain
	// Replication extrapolates the reduced computation to the suite's
	// reference input scale. Zero means 1.
	Replication float64
	// Body executes the benchmark against an emitter.
	Body func(e *Emitter) error
}

var _ workloads.Workload = (*Bench)(nil)

// Name returns the benchmark name.
func (b *Bench) Name() string { return b.BenchName }

// Abbr returns the lookup abbreviation.
func (b *Bench) Abbr() string { return b.BenchAbbr }

// Suite returns the owning suite.
func (b *Bench) Suite() workloads.Suite { return b.BenchSuite }

// Domain returns the benchmark domain.
func (b *Bench) Domain() workloads.Domain { return b.BenchDomain }

// Run executes the benchmark.
func (b *Bench) Run(s *profiler.Session) error {
	r := b.Replication
	if r < 1 {
		r = 1
	}
	if b.Body == nil {
		return fmt.Errorf("suites: %s has no body", b.BenchAbbr)
	}
	if err := b.Body(&Emitter{sess: s, repl: r}); err != nil {
		return fmt.Errorf("suites: %s: %w", b.BenchAbbr, err)
	}
	return nil
}

// Emitter launches kernels scaled by the benchmark's replication factor.
type Emitter struct {
	sess *profiler.Session
	repl float64
}

// Mix is a builder for warp-instruction mixes from thread-instruction
// estimates.
type Mix struct{ m isa.Mix }

// Add accumulates threadInsts thread instructions of class c.
func (x *Mix) Add(c isa.Class, threadInsts float64) *Mix {
	x.m.Add(c, isa.Warps(threadInsts))
	return x
}

// Stream describes one memory stream (thin wrapper so suite code does not
// import memsim directly).
type Stream = memsim.Stream

// Read builds a coalesced read stream.
func Read(name string, bytes uint64, reuse float64) Stream {
	if reuse < 1 {
		reuse = 1
	}
	return Stream{Name: name, FootprintBytes: max1(bytes), AccessBytes: max1(uint64(float64(bytes) * reuse)),
		ElemBytes: 4, Pattern: memsim.Coalesced, Partitioned: true}
}

// Write builds a coalesced write stream.
func Write(name string, bytes uint64) Stream {
	return Stream{Name: name, FootprintBytes: max1(bytes), AccessBytes: max1(bytes),
		ElemBytes: 4, Pattern: memsim.Coalesced, Store: true, Partitioned: true}
}

// Gather builds a random-access read stream over footprint bytes.
func Gather(name string, footprint, access uint64) Stream {
	return Stream{Name: name, FootprintBytes: max1(footprint), AccessBytes: max1(access),
		ElemBytes: 4, Pattern: memsim.Random, Partitioned: true}
}

// Scatter builds a random-access write stream.
func Scatter(name string, footprint, access uint64) Stream {
	return Stream{Name: name, FootprintBytes: max1(footprint), AccessBytes: max1(access),
		ElemBytes: 4, Pattern: memsim.Random, Store: true, Partitioned: true}
}

// Broadcast builds a broadcast read stream (lookup tables).
func Broadcast(name string, footprint, access uint64) Stream {
	return Stream{Name: name, FootprintBytes: max1(footprint), AccessBytes: max1(access),
		ElemBytes: 4, Pattern: memsim.Broadcast, Partitioned: false}
}

func max1(v uint64) uint64 {
	if v == 0 {
		return 1
	}
	return v
}

// Launch issues one kernel with the given thread count, mix and streams.
func (e *Emitter) Launch(name string, threads int, mix *Mix, streams []Stream, div float64) {
	e.sess.Submit(gpu.Replicated(name, threads, 256, e.repl, mix.m, streams, div))
}
