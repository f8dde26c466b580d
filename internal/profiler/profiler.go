// Package profiler plays the role Nsight Compute plays in the paper: it
// records every kernel launch a workload issues on the device model and
// aggregates them into per-kernel profiles carrying the paper's performance
// metrics (Table IV) plus the four primary metrics (GIPS, instruction
// intensity, SM efficiency, warp occupancy).
package profiler

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/memsim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Metric enumerates the collected performance metrics. The first four are
// the paper's primary metrics; the remainder reproduce Table IV.
type Metric uint8

const (
	// GIPS is achieved Giga warp instructions per second.
	GIPS Metric = iota
	// InstIntensity is warp instructions per DRAM transaction.
	InstIntensity
	// SMEfficiency is the fraction of time with at least one active warp
	// per SM.
	SMEfficiency
	// WarpOccupancy is the average number of active warps across all SMs.
	WarpOccupancy
	// L1HitRate is the fraction of accesses that hit in L1.
	L1HitRate
	// L2HitRate is the fraction of accesses that hit in L2.
	L2HitRate
	// DRAMReadThroughput is total DRAM read bytes per second.
	DRAMReadThroughput
	// LDSTUtilization is the average load/store functional-unit utilization.
	LDSTUtilization
	// SPUtilization is the average FP32 pipeline utilization.
	SPUtilization
	// FracBranches is the fraction of branch instructions.
	FracBranches
	// FracLDST is the fraction of memory operations.
	FracLDST
	// StallExec is the stall ratio due to execution dependencies.
	StallExec
	// StallPipe is the stall ratio due to busy pipelines.
	StallPipe
	// StallSync is the stall ratio due to synchronization.
	StallSync
	// StallMem is the stall ratio due to memory accesses.
	StallMem

	numMetrics
)

// NumMetrics is the number of collected metrics.
const NumMetrics = int(numMetrics)

var metricNames = [NumMetrics]string{
	"GIPS", "Inst. intensity", "SM efficiency", "Warp occupancy",
	"L1 hit rate", "L2 hit rate", "DRAM read throughput",
	"LD/ST utilization", "SP utilization",
	"Fraction branches", "Fraction LD/ST insts",
	"Execution stall", "Pipe stall", "Sync stall", "Memory stall",
}

// String returns the metric's display name.
func (m Metric) String() string {
	if int(m) < NumMetrics {
		return metricNames[m]
	}
	return fmt.Sprintf("metric(%d)", uint8(m))
}

// Primary reports whether m is one of the paper's four primary metrics.
func (m Metric) Primary() bool { return m <= WarpOccupancy }

// Metrics returns all metrics in declaration order.
func Metrics() []Metric {
	out := make([]Metric, NumMetrics)
	for i := range out {
		out[i] = Metric(i)
	}
	return out
}

// PrimaryMetrics returns the paper's four primary metrics.
func PrimaryMetrics() []Metric {
	return []Metric{GIPS, InstIntensity, SMEfficiency, WarpOccupancy}
}

// SecondaryMetrics returns the Table IV metrics correlated against the
// primary ones in Figure 8.
func SecondaryMetrics() []Metric {
	var out []Metric
	for _, m := range Metrics() {
		if !m.Primary() {
			out = append(out, m)
		}
	}
	return out
}

// Vector is a full metric vector indexed by Metric.
type Vector [NumMetrics]float64

// Get returns the value of metric m.
func (v Vector) Get(m Metric) float64 { return v[m] }

// KernelProfile aggregates all invocations of one kernel (launches sharing a
// name), mirroring the paper's r_i x t_i accounting for dominant-kernel
// ranking.
type KernelProfile struct {
	Name        string
	Invocations int
	TotalTime   units.Seconds // summed over invocations
	// TotalOverhead is the summed fixed launch overhead, the portion of
	// TotalTime the attribution tree reports as BottleneckOverhead. Because
	// overhead is a device constant per launch, it always equals
	// Invocations x the device's launch overhead.
	TotalOverhead units.Seconds
	Mix           isa.Mix
	Traffic       memsim.Traffic

	// time-weighted accumulators for averaged metrics (seconds x metric,
	// raw floats by convention: mixed-dimension intermediates)
	wOcc, wSMEff, wLDST, wSP           float64
	wStallE, wStallP, wStallS, wStallM float64
}

// WarpInstructions returns the kernel's total executed warp instructions.
func (k *KernelProfile) WarpInstructions() units.WarpInsts {
	return units.WarpInsts(k.Mix.Total())
}

func (k *KernelProfile) add(r gpu.LaunchResult) {
	k.Invocations++
	k.TotalTime += r.Time
	k.TotalOverhead += r.Overhead
	k.Mix.AddMix(r.Mix)
	k.Traffic.Add(r.Traffic)
	w := r.Time.Float()
	k.wOcc += w * r.Occ.Achieved
	k.wSMEff += w * r.SMEfficiency.Float()
	k.wLDST += w * r.LDSTUtil.Float()
	k.wSP += w * r.SPUtil.Float()
	k.wStallE += w * r.StallExec.Float()
	k.wStallP += w * r.StallPipe.Float()
	k.wStallS += w * r.StallSync.Float()
	k.wStallM += w * r.StallMem.Float()
}

// Metrics returns the kernel's aggregated metric vector. Instruction
// intensity for kernels with zero DRAM traffic is reported against a single
// transaction (finite, very large) so downstream statistics stay defined
// and every JSON export of the vector (profile cache entries, trace args)
// marshals without error — encoding/json rejects the +Inf that
// gpu.LaunchResult.InstIntensity reports for such kernels.
func (k *KernelProfile) Metrics() Vector {
	var v Vector
	t := k.TotalTime.Float()
	if t <= 0 {
		return v
	}
	insts := float64(k.Mix.Total())
	txns := k.Traffic.DRAMTxns.Float()
	if txns < 1 {
		txns = 1
	}
	v[GIPS] = insts / t / 1e9
	v[InstIntensity] = insts / txns
	v[SMEfficiency] = k.wSMEff / t
	v[WarpOccupancy] = k.wOcc / t
	v[L1HitRate] = k.Traffic.L1HitRate().Float()
	v[L2HitRate] = k.Traffic.L2HitRate().Float()
	v[DRAMReadThroughput] = units.Throughput(
		k.Traffic.DRAMReadTx.Bytes(memsim.SectorBytes), k.TotalTime).Float()
	v[LDSTUtilization] = k.wLDST / t
	v[SPUtilization] = k.wSP / t
	v[FracBranches] = k.Mix.BranchFraction()
	v[FracLDST] = k.Mix.MemoryFraction()
	v[StallExec] = k.wStallE / t
	v[StallPipe] = k.wStallP / t
	v[StallSync] = k.wStallS / t
	v[StallMem] = k.wStallM / t
	return v
}

// Session records the launches of one workload run. It wraps a device so
// workload code only ever talks to the session, and it is the one checked
// launch path: every launch it prices passes gpu.CheckSpec before pricing
// and gpu.CheckResult after. A session without a device prices and checks
// nothing: it records each spec as issued, so a workload's input-dependent
// spec stream can be captured without a device model.
type Session struct {
	dev    *gpu.Device
	tracer telemetry.Tracer
	lane   int

	mu       sync.Mutex
	launches []gpu.LaunchResult
	specs    []gpu.KernelSpec // device-less sessions only
	cursor   units.Seconds    // modeled-track timeline position
	err      error            // the first failed launch's error
}

// SessionOptions configures a session's telemetry.
type SessionOptions struct {
	// Tracer, when non-nil, receives one modeled-GPU-track span per launch:
	// kernel launches laid end to end from t=0 using their modeled
	// durations, so the track is deterministic across identical runs.
	Tracer telemetry.Tracer
	// Label names the session's modeled-track lane (usually the workload
	// abbreviation); empty emits no lane metadata.
	Label string
	// Lane is the modeled-track thread id. Sessions recording into a shared
	// tracer (a study) use distinct lanes so timelines don't overlap.
	Lane int
}

// NewSession starts a profiling session on dev with telemetry disabled. A
// nil dev makes a session that only records specs.
func NewSession(dev *gpu.Device) *Session {
	return NewSessionWith(dev, SessionOptions{})
}

// NewSessionWith starts a profiling session on dev with the given telemetry.
func NewSessionWith(dev *gpu.Device, opts SessionOptions) *Session {
	s := &Session{dev: dev, tracer: telemetry.Or(opts.Tracer), lane: opts.Lane}
	if s.tracer.Enabled() && opts.Label != "" {
		s.tracer.Emit(telemetry.ThreadName(telemetry.TrackModeled, opts.Lane, opts.Label))
	}
	return s
}

// Device returns the underlying device.
func (s *Session) Device() *gpu.Device { return s.dev }

// Launch checks spec against the device's limits (gpu.CheckSpec), models
// it, checks the result's metrics (gpu.CheckResult) and records it. Any
// issue fails the launch with an error naming the kernel and each rule
// with its detail. The session keeps its first failure: from then on
// Launch prices nothing and returns that error, and Err reports it.
// Without a device Launch records spec unchecked and returns a zero result.
func (s *Session) Launch(spec gpu.KernelSpec) (gpu.LaunchResult, error) {
	if s.dev == nil {
		// The spec outlives this call, so it keeps its own trace.
		spec.Trace = slices.Clone(spec.Trace)
		s.mu.Lock()
		s.specs = append(s.specs, spec)
		s.mu.Unlock()
		return gpu.LaunchResult{}, nil
	}
	if err := s.Err(); err != nil {
		return gpu.LaunchResult{}, err
	}
	res, err := s.price(spec)
	s.mu.Lock()
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		s.mu.Unlock()
		return gpu.LaunchResult{}, err
	}
	s.launches = append(s.launches, res)
	start := s.cursor
	s.cursor += res.Time
	s.mu.Unlock()
	if s.tracer.Enabled() {
		s.tracer.Emit(telemetry.Event{
			Track: telemetry.TrackModeled, Phase: telemetry.PhaseSpan,
			Name: res.Name, Cat: "kernel", TID: s.lane,
			Start: start.Float(), Dur: res.Time.Float(),
			Args: res.TelemetryArgs(),
		})
	}
	return res, nil
}

// price runs the device model on spec between the two checks.
func (s *Session) price(spec gpu.KernelSpec) (gpu.LaunchResult, error) {
	cfg := s.dev.Config()
	if issues := gpu.CheckSpec(cfg, spec); len(issues) > 0 {
		return gpu.LaunchResult{}, launchError(spec.Name, issues)
	}
	res, err := s.dev.Launch(spec)
	if err != nil {
		return res, err
	}
	if issues := gpu.CheckResult(cfg, res); len(issues) > 0 {
		return res, launchError(spec.Name, issues)
	}
	return res, nil
}

// launchError names the kernel and every issue one launch broke.
func launchError(kernel string, issues []gpu.Issue) error {
	rules := make([]string, len(issues))
	for i, is := range issues {
		rules[i] = is.String()
	}
	return fmt.Errorf("profiler: kernel %s: %s", kernel, strings.Join(rules, "; "))
}

// Submit is Launch for workload code, which has no use for the result: a
// failed launch is kept as the session's error rather than returned, and
// core.RunWorkload reports it (Err) once the workload returns.
func (s *Session) Submit(spec gpu.KernelSpec) {
	_, _ = s.Launch(spec) // kept in s.err
}

// Err returns the session's first failed launch, or nil.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Launches returns the recorded launches in issue order.
func (s *Session) Launches() []gpu.LaunchResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]gpu.LaunchResult, len(s.launches))
	copy(out, s.launches)
	return out
}

// LaunchCount returns the number of recorded launches.
func (s *Session) LaunchCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.launches)
}

// TotalTime returns the summed GPU time of all launches.
func (s *Session) TotalTime() units.Seconds {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t units.Seconds
	for _, l := range s.launches {
		t += l.Time
	}
	return t
}

// TotalWarpInstructions returns the summed warp-instruction count.
func (s *Session) TotalWarpInstructions() units.WarpInsts {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n units.WarpInsts
	for _, l := range s.launches {
		n += units.WarpInsts(l.Mix.Total())
	}
	return n
}

// Kernels aggregates launches by kernel name and returns the profiles
// sorted by descending total time (the paper's dominant-kernel rank:
// r_i x t_i).
func (s *Session) Kernels() []*KernelProfile {
	s.mu.Lock()
	defer s.mu.Unlock()
	byName := make(map[string]*KernelProfile)
	var order []string
	for _, l := range s.launches {
		k, ok := byName[l.Name]
		if !ok {
			k = &KernelProfile{Name: l.Name}
			byName[l.Name] = k
			order = append(order, l.Name)
		}
		k.add(l)
	}
	out := make([]*KernelProfile, 0, len(order))
	for _, n := range order {
		out = append(out, byName[n])
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].TotalTime != out[j].TotalTime {
			return out[i].TotalTime > out[j].TotalTime
		}
		return out[i].Name < out[j].Name
	})
	return out
}
