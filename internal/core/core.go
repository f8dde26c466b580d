// Package core implements the paper's contribution: the top-down
// GPU-compute characterization methodology. Given profiled workload runs it
// computes GPU-time distributions and dominant-kernel sets (Figs. 2-3,
// Table I), roofline placements (Figs. 4-7), the performance-metric
// correlation analysis (Fig. 8), and the FAMD + hierarchical-clustering
// workload-space analysis (Fig. 9), together with the coverage statistics
// behind Observations #10-#12.
package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/gpu"
	"repro/internal/profiler"
	"repro/internal/roofline"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workloads"
)

// KernelChar is one kernel's characterization within a workload profile.
type KernelChar struct {
	Name        string
	Invocations int
	TimeShare   units.Fraction // fraction of the workload's GPU time
	Metrics     profiler.Vector

	instCount float64 // total warp instructions (Table I aggregation)
}

// WarpInstructions returns the kernel's total warp-instruction count.
func (k KernelChar) WarpInstructions() units.WarpInsts { return units.WarpInsts(k.instCount) }

// II returns the kernel's instruction intensity.
func (k KernelChar) II() float64 { return k.Metrics.Get(profiler.InstIntensity) }

// GIPS returns the kernel's achieved performance.
func (k KernelChar) GIPS() float64 { return k.Metrics.Get(profiler.GIPS) }

// Profile is one workload's characterization.
type Profile struct {
	Workload workloads.Workload
	// Kernels in descending time-share order (the paper's dominance rank).
	Kernels []KernelChar
	// TotalTime is the summed GPU time.
	TotalTime units.Seconds
	// TotalWarpInsts is the total executed warp instructions.
	TotalWarpInsts units.WarpInsts
	// AggII and AggGIPS are the application-aggregate roofline coordinates
	// (Fig. 5 plots these).
	AggII, AggGIPS float64
}

// Abbr returns the workload abbreviation.
func (p *Profile) Abbr() string { return p.Workload.Abbr() }

// KernelsFor returns how many dominant kernels are needed to cover the
// given fraction of GPU time (Table I's "70% execution time" column).
func (p *Profile) KernelsFor(frac units.Fraction) int {
	var cum units.Fraction
	for i, k := range p.Kernels {
		cum += k.TimeShare
		if cum >= frac {
			return i + 1
		}
	}
	return len(p.Kernels)
}

// CumulativeShares returns the cumulative GPU-time distribution over the
// dominance-ranked kernels (Fig. 3's series), truncated to at most maxK
// entries (0 = all).
func (p *Profile) CumulativeShares(maxK int) []float64 {
	n := len(p.Kernels)
	if maxK > 0 && maxK < n {
		n = maxK
	}
	out := make([]float64, n)
	cum := 0.0
	for i := 0; i < n; i++ {
		cum += p.Kernels[i].TimeShare.Float()
		out[i] = cum
	}
	return out
}

// DominantKernels returns the smallest prefix of kernels covering frac of
// the GPU time — the paper's dominant-kernel set.
func (p *Profile) DominantKernels(frac units.Fraction) []KernelChar {
	return p.Kernels[:p.KernelsFor(frac)]
}

// WeightedAvgInstsPerKernel returns Table I's "weighted average number of
// warp instructions per kernel": the time-share-weighted mean of per-kernel
// instruction counts.
func (p *Profile) WeightedAvgInstsPerKernel() float64 {
	var avg float64
	for _, k := range p.Kernels {
		avg += k.TimeShare.Float() * k.instCount
	}
	return avg
}

// AggregatePoint returns the workload's aggregate roofline point (Fig. 5).
func (p *Profile) AggregatePoint() roofline.Point {
	return roofline.Point{Label: p.Abbr(), II: p.AggII, GIPS: p.AggGIPS, TimeShare: 1}
}

// KernelPoints returns per-kernel roofline points (Figs. 4, 6, 7), labeled
// workload:kernel.
func (p *Profile) KernelPoints() []roofline.Point {
	out := make([]roofline.Point, len(p.Kernels))
	for i, k := range p.Kernels {
		out[i] = roofline.Point{
			Label: p.Abbr() + ":" + k.Name, II: k.II(), GIPS: k.GIPS(), TimeShare: k.TimeShare,
		}
	}
	return out
}

// Characterize runs one workload on a fresh device and derives its profile.
func Characterize(w workloads.Workload, cfg gpu.DeviceConfig) (*Profile, error) {
	return characterize(w, cfg, nil, nil, 0)
}

// RunWorkload is the one path every characterization takes: it builds a
// fresh device for cfg, attaches tr and ctr to it (host-track launch spans,
// launch and warp-instruction counters), opens a profiling session labelled
// with the workload on modeled-track lane `lane`, and runs the workload.
// Both sinks are optional. The returned session holds every launch result;
// a launch that failed its checks (see profiler.Session.Launch) fails the
// run, naming the workload, kernel and rule.
// A device is never shared between calls, so concurrent calls race on
// nothing but the sinks, which are safe for concurrent use.
func RunWorkload(w workloads.Workload, cfg gpu.DeviceConfig, tr telemetry.Tracer, ctr *telemetry.Counters, lane int) (*profiler.Session, error) {
	dev, err := gpu.New(cfg)
	if err != nil {
		return nil, err
	}
	dev.SetTelemetry(tr, ctr)
	sess := profiler.NewSessionWith(dev, profiler.SessionOptions{
		Tracer: tr, Label: w.Abbr(), Lane: lane,
	})
	err = w.Run(sess)
	if err == nil {
		err = sess.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("core: running %s: %w", w.Abbr(), err)
	}
	return sess, nil
}

// characterize is Characterize with telemetry attached (see RunWorkload).
func characterize(w workloads.Workload, cfg gpu.DeviceConfig, tr telemetry.Tracer, ctr *telemetry.Counters, lane int) (*Profile, error) {
	sess, err := RunWorkload(w, cfg, tr, ctr, lane)
	if err != nil {
		return nil, err
	}
	return profileFromSession(w, sess)
}

func profileFromSession(w workloads.Workload, sess *profiler.Session) (*Profile, error) {
	total := sess.TotalTime()
	if total <= 0 {
		return nil, fmt.Errorf("core: %s recorded no GPU time", w.Abbr())
	}
	p := &Profile{
		Workload:       w,
		TotalTime:      total,
		TotalWarpInsts: sess.TotalWarpInstructions(),
	}
	var txns units.Txns
	for _, l := range sess.Launches() {
		txns += l.Traffic.DRAMTxns
	}
	p.AggII = units.IntensityFloor1(p.TotalWarpInsts, txns)
	p.AggGIPS = p.TotalWarpInsts.PerSec(total) / 1e9
	var kernelSum units.Seconds
	for _, k := range sess.Kernels() {
		kernelSum += k.TotalTime
		p.Kernels = append(p.Kernels, KernelChar{
			Name:        k.Name,
			Invocations: k.Invocations,
			TimeShare:   units.Share(k.TotalTime, total),
			Metrics:     k.Metrics(),
			instCount:   k.WarpInstructions().Float(),
		})
	}
	// The time-sum identity: the per-kernel aggregation loses no launch.
	if diff := math.Abs((kernelSum - total).Float()); diff > 1e-9*total.Float() {
		return nil, fmt.Errorf("core: %s: time-sum: per-kernel times sum to %.9g s, session total is %.9g s",
			w.Abbr(), kernelSum.Float(), total.Float())
	}
	return p, nil
}

// Study characterizes a set of workloads once and caches their profiles —
// the unit of work every figure and table derives from.
type Study struct {
	Device   gpu.DeviceConfig
	Profiles []*Profile
	byAbbr   map[string]*Profile
}

// StudyOptions configures how NewStudyWith characterizes its workloads.
// The zero value means: one worker per CPU, no profile cache, telemetry off.
type StudyOptions struct {
	// Workers is the number of goroutines characterizing workloads
	// concurrently. Zero or negative selects runtime.NumCPU(). Each
	// characterization builds its own gpu.Device and profiler.Session, so
	// no simulator state is shared across goroutines, and Study.Profiles is
	// assembled in the caller's workload order — the resulting figures and
	// tables are byte-identical whatever the worker count.
	Workers int
	// Cache, when non-nil, is consulted before simulating a workload and
	// updated after each miss, so repeated studies skip re-simulation.
	// Failures to write an entry do not fail the study: they are counted
	// (telemetry.CtrCacheStoreErrors) and surfaced through Progress.
	Cache *ProfileCache
	// Tracer, when non-nil, receives the study's telemetry events: each
	// workload's kernel launches on its own modeled-GPU-time lane, plus
	// host-track spans for characterization tasks, cache probes, and
	// worker-pool lifecycle. Must be safe for concurrent use (it is called
	// from every worker goroutine).
	Tracer telemetry.Tracer
	// Counters, when non-nil, accumulates pipeline counters: launches,
	// warp instructions, cache hits/misses/corruption/store errors, busy
	// workers, and per-workload modeled vs wall time.
	Counters *telemetry.Counters
	// Progress, when non-nil, is invoked once per workload — from the
	// goroutine that characterized it, in completion order — after its
	// profile is ready. It is the subscriber seam for everything beyond
	// traces and counters: the CLI's -v lines and slog events, and metrics
	// histograms (ObserveMetrics). Must be safe for concurrent use when
	// Workers > 1.
	Progress func(WorkloadProgress)
}

// WorkloadProgress reports one characterized workload to a Progress hook.
type WorkloadProgress struct {
	// Profile is the workload's characterization.
	Profile *Profile
	// Wall is the host wall time spent producing the profile (simulation
	// or cache load, including the cache probe and store).
	Wall time.Duration
	// Cache is the cache-probe outcome; CacheDisabled when no cache is
	// configured.
	Cache CacheOutcome
	// StoreErr, when non-nil, is the cache-write failure for this profile.
	// Store failures do not fail the study; they are reported here and
	// counted under telemetry.CtrCacheStoreErrors.
	StoreErr error
}

// ObserveMetrics returns a Progress hook that records each characterized
// workload in reg's histograms: its modeled and wall seconds, and every
// kernel's L1 and L2 hit rate. The histograms come into being on the first
// observation, so a run that characterizes nothing exports none. The hook
// is safe for concurrent use.
func ObserveMetrics(reg *telemetry.Registry) func(WorkloadProgress) {
	return func(p WorkloadProgress) {
		reg.Histogram(telemetry.HistWorkloadModeledSeconds).Observe(p.Profile.TotalTime.Float())
		reg.Histogram(telemetry.HistWorkloadWallSeconds).Observe(p.Wall.Seconds())
		l1 := reg.Histogram(telemetry.HistKernelL1HitRate)
		l2 := reg.Histogram(telemetry.HistKernelL2HitRate)
		for _, k := range p.Profile.Kernels {
			l1.Observe(k.Metrics.Get(profiler.L1HitRate))
			l2.Observe(k.Metrics.Get(profiler.L2HitRate))
		}
	}
}

// NewStudy characterizes all the given workloads on cfg, serially and
// without a cache — the reference path NewStudyWith must match byte for
// byte.
func NewStudy(cfg gpu.DeviceConfig, ws ...workloads.Workload) (*Study, error) {
	return NewStudyWith(cfg, StudyOptions{Workers: 1}, ws...)
}

// NewStudyWith characterizes all the given workloads on cfg according to
// opts. On error the first failure observed is returned and the partial
// study is discarded.
func NewStudyWith(cfg gpu.DeviceConfig, opts StudyOptions, ws ...workloads.Workload) (*Study, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(ws) {
		workers = len(ws)
	}
	profiles, err := characterizeAll(ws, cfg, opts, workers)
	if err != nil {
		return nil, err
	}
	st := &Study{Device: cfg}
	for _, p := range profiles {
		st.Add(p)
	}
	return st, nil
}

// characterizeAll fans the workloads out over a fixed pool of workers,
// writing each profile into its workload's slot so order is preserved.
// The first error stops the feed; characterizations already started
// finish before return. Each worker owns one host-track telemetry lane;
// its per-task spans are the pool's lifecycle record, and CtrWorkersBusy
// gauges its occupancy.
func characterizeAll(ws []workloads.Workload, cfg gpu.DeviceConfig, opts StudyOptions, workers int) ([]*Profile, error) {
	profiles := make([]*Profile, len(ws))
	var (
		wg       sync.WaitGroup
		once     sync.Once
		firstErr error
	)
	tr := telemetry.Or(opts.Tracer)
	// A one-worker pool has no occupancy to gauge; leaving the gauge
	// untouched keeps its counter dumps free of a constant zero.
	busy := opts.Counters
	if workers == 1 {
		busy = nil
	}
	idx := make(chan int)
	fail := make(chan struct{})
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			if tr.Enabled() {
				tr.Emit(telemetry.ThreadName(telemetry.TrackHost, worker,
					fmt.Sprintf("worker %d", worker)))
			}
			for i := range idx {
				busy.Add(telemetry.CtrWorkersBusy, 1)
				p, _, err := CharacterizeWith(ws[i], cfg, opts, i, worker)
				busy.Add(telemetry.CtrWorkersBusy, -1)
				if err != nil {
					once.Do(func() { firstErr = err; close(fail) })
					continue
				}
				profiles[i] = p
			}
		}(n)
	}
feed:
	for i := range ws {
		select {
		case idx <- i:
		case <-fail:
			break feed
		}
	}
	close(idx)
	wg.Wait()
	return profiles, firstErr
}

// CharacterizeWith is one workload's characterization behind the optional
// profile cache, instrumented end to end: the cache probe outcome becomes a
// host-track instant and a hit/miss/corrupt counter, the whole task becomes
// a host-track span on the worker's lane, the workload's modeled vs wall
// time land in per-workload counters, and Progress hears of the result.
// opts.Workers is ignored. `lane` is the workload's modeled-track lane (its
// index in a study); `worker` is the host-track lane of the goroutine doing
// the work. The cache-probe outcome is returned alongside the profile
// (CacheDisabled when opts carries no cache). Studies run it once per
// workload; the server runs it once per cold (workload, device) pair.
func CharacterizeWith(w workloads.Workload, cfg gpu.DeviceConfig, opts StudyOptions, lane, worker int) (*Profile, CacheOutcome, error) {
	tr := telemetry.Or(opts.Tracer)
	//lint:ignore nodeterminism wall time is telemetry about the pipeline, not model output
	wallStart := time.Now()
	hostStart := telemetry.Now()

	outcome := CacheDisabled
	var p *Profile
	if opts.Cache != nil {
		p, outcome = opts.Cache.Probe(w, cfg)
		switch outcome {
		case CacheHit:
			opts.Counters.Add(telemetry.CtrCacheHits, 1)
		case CacheMiss:
			opts.Counters.Add(telemetry.CtrCacheMisses, 1)
		case CacheCorrupt:
			// A corrupt entry is functionally a miss, but visible.
			opts.Counters.Add(telemetry.CtrCacheMisses, 1)
			opts.Counters.Add(telemetry.CtrCacheCorrupt, 1)
		}
		if tr.Enabled() {
			tr.Emit(telemetry.Event{
				Track: telemetry.TrackHost, Phase: telemetry.PhaseInstant,
				Name: "cache " + outcome.String(), Cat: "cache", TID: worker,
				Start: telemetry.Now(),
				Args:  map[string]any{"workload": w.Abbr()},
			})
		}
	}

	var storeErr error
	if p == nil {
		var err error
		if p, err = characterize(w, cfg, tr, opts.Counters, lane); err != nil {
			return nil, outcome, err
		}
		if opts.Cache != nil {
			storeErr = storeProfile(p, cfg, opts, tr, worker)
		}
	}

	//lint:ignore nodeterminism wall time is telemetry about the pipeline, not model output
	wall := time.Since(wallStart)
	opts.Counters.Add(telemetry.CtrWorkloads, 1)
	opts.Counters.Add(telemetry.WorkloadModeledNs(w.Abbr()), int64(p.TotalTime.Nanos()))
	opts.Counters.Add(telemetry.WorkloadWallNs(w.Abbr()), wall.Nanoseconds())
	if tr.Enabled() {
		tr.Emit(telemetry.Event{
			Track: telemetry.TrackHost, Phase: telemetry.PhaseSpan,
			Name: w.Abbr(), Cat: "characterize", TID: worker,
			Start: hostStart, Dur: telemetry.Now() - hostStart,
			Args: map[string]any{
				"cache":      outcome.String(),
				"kernels":    len(p.Kernels),
				"modeled_ms": p.TotalTime.Millis(),
			},
		})
	}
	if opts.Progress != nil {
		opts.Progress(WorkloadProgress{Profile: p, Wall: wall, Cache: outcome, StoreErr: storeErr})
	}
	return p, outcome, nil
}

// storeProfile writes p to opts.Cache. A failed store does not fail the
// characterization: the error, wrapped with the workload, is counted under
// telemetry.CtrCacheStoreErrors, traced on the worker's lane, and returned
// for Progress.
func storeProfile(p *Profile, cfg gpu.DeviceConfig, opts StudyOptions, tr telemetry.Tracer, worker int) error {
	err := opts.Cache.Store(p, cfg)
	if err == nil {
		return nil
	}
	err = fmt.Errorf("core: caching %s: %w", p.Abbr(), err)
	opts.Counters.Add(telemetry.CtrCacheStoreErrors, 1)
	if tr.Enabled() {
		tr.Emit(telemetry.Event{
			Track: telemetry.TrackHost, Phase: telemetry.PhaseInstant,
			Name: "cache store error", Cat: "cache", TID: worker,
			Start: telemetry.Now(),
			Args:  map[string]any{"workload": p.Abbr(), "error": err.Error()},
		})
	}
	return err
}

// Add appends an already-characterized profile to the study (used to slice
// a full study into per-suite views without re-running workloads).
func (st *Study) Add(p *Profile) {
	if st.byAbbr == nil {
		st.byAbbr = make(map[string]*Profile)
	}
	st.Profiles = append(st.Profiles, p)
	st.byAbbr[p.Abbr()] = p
}

// Profile looks up a workload's profile by abbreviation.
func (st *Study) Profile(abbr string) (*Profile, error) {
	p, ok := st.byAbbr[abbr]
	if !ok {
		return nil, fmt.Errorf("core: no profile for %q", abbr)
	}
	return p, nil
}

// BySuite returns the study's profiles belonging to one suite.
func (st *Study) BySuite(s workloads.Suite) []*Profile {
	var out []*Profile
	for _, p := range st.Profiles {
		if p.Workload.Suite() == s {
			out = append(out, p)
		}
	}
	return out
}

// Observation is one dominant kernel of one workload as a labeled metric
// row — an input row of the correlation and clustering analyses.
type Observation struct {
	Workload string
	Kernel   string
	Suite    workloads.Suite
	Metrics  profiler.Vector
	II, GIPS float64
}

// DominantObservations extracts dominant-kernel observations from profiles.
func DominantObservations(profiles []*Profile, frac units.Fraction) []Observation {
	var out []Observation
	for _, p := range profiles {
		for _, k := range p.DominantKernels(frac) {
			out = append(out, Observation{
				Workload: p.Abbr(), Kernel: k.Name, Suite: p.Workload.Suite(),
				Metrics: k.Metrics, II: k.II(), GIPS: k.GIPS(),
			})
		}
	}
	return out
}

// CorrelationResult is Fig. 8 for one workload group: |PCC| of each primary
// metric against each Table IV metric.
type CorrelationResult struct {
	Primary   []profiler.Metric
	Secondary []profiler.Metric
	// Abs[i][j] = |PCC(primary i, secondary j)|.
	Abs [][]float64
}

// StrongOrWeakCount returns how many (primary, secondary) pairs correlate
// at least weakly (|r| >= 0.2) — the paper's Fig. 8 comparison statistic.
func (c *CorrelationResult) StrongOrWeakCount() int {
	n := 0
	for _, row := range c.Abs {
		for _, v := range row {
			if stats.Strength(v) != stats.NoCorrelation {
				n++
			}
		}
	}
	return n
}

// Correlate computes the Fig. 8 correlation heatmap over a set of
// observations. Intensity values are log-transformed first: the paper's
// metrics span orders of magnitude and Pearson on raw II is dominated by
// outliers.
func Correlate(obs []Observation) (*CorrelationResult, error) {
	if len(obs) < 3 {
		return nil, fmt.Errorf("core: %d observations, need >= 3", len(obs))
	}
	col := func(m profiler.Metric) []float64 {
		out := make([]float64, len(obs))
		for i, o := range obs {
			v := o.Metrics.Get(m)
			if m == profiler.InstIntensity || m == profiler.GIPS || m == profiler.DRAMReadThroughput {
				v = math.Log10(v + 1e-9)
			}
			out[i] = v
		}
		return out
	}
	res := &CorrelationResult{
		Primary:   profiler.PrimaryMetrics(),
		Secondary: profiler.SecondaryMetrics(),
	}
	for _, pm := range res.Primary {
		row := make([]float64, 0, len(res.Secondary))
		pc := col(pm)
		for _, sm := range res.Secondary {
			r, err := stats.Pearson(pc, col(sm))
			if err != nil {
				return nil, err
			}
			row = append(row, math.Abs(r))
		}
		res.Abs = append(res.Abs, row)
	}
	return res, nil
}

// AmdahlExample reproduces the Section II-C worked example: a workload with
// the given kernel time shares; it returns the speedup required on the most
// dominant kernel alone to achieve the target overall speedup, and the
// overall speedup if every kernel is improved by the target factor. No
// command calls it: it stays for BenchmarkAblationAmdahl, the DESIGN.md §6b
// ablation of the dominant-kernel speedup model.
func AmdahlExample(shares []float64, target float64) (dominantSpeedup, uniformSpeedup float64, err error) {
	if len(shares) == 0 || target <= 1 {
		return 0, 0, fmt.Errorf("core: invalid Amdahl example")
	}
	var sum, maxShare float64
	for _, s := range shares {
		if s <= 0 {
			return 0, 0, fmt.Errorf("core: non-positive share")
		}
		sum += s
		if s > maxShare {
			maxShare = s
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		return 0, 0, fmt.Errorf("core: shares sum to %g, want 1", sum)
	}
	// Overall time with dominant kernel sped up by x:
	// T(x) = (1 - maxShare) + maxShare/x = 1/target
	// => maxShare/x = 1/target - (1 - maxShare)
	rhs := 1/target - (1 - maxShare)
	if rhs <= 0 {
		return math.Inf(1), target, nil
	}
	return maxShare / rhs, target, nil
}
