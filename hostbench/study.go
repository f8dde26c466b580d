package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/roofline"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// clusters is the Figure 9 cluster count `cactus all` uses by default.
const clusters = 6

// studyRun is one characterization study followed by its rendering.
type studyRun struct {
	st         *core.Study
	out        []byte
	launches   int64   // gpu.launches counted by the devices
	t0, t1     float64 // the whole call, telemetry clock
	studyStart float64 // the NewStudyWith call
	studyEnd   float64
}

// studyOnce characterizes ws on dev through core.NewStudyWith, exactly as
// the CLI does, and renders the result with render. With spans set the
// study gets the tracer (so core emits its characterize spans and builds a
// fresh device per workload) and every workload is wrapped for tracing.
func studyOnce(dev gpu.DeviceConfig, ws []workloads.Workload, cache *core.ProfileCache, workers int,
	spans *spanRec, render func(*core.Study, io.Writer, *spanRec) error) (*studyRun, error) {
	ctr := telemetry.NewCounters()
	opts := core.StudyOptions{Workers: workers, Cache: cache, Counters: ctr}
	if spans != nil {
		opts.Tracer = spans.tracer()
		ws = traceAll(ws, spans)
	}
	r := &studyRun{t0: telemetry.Now()}
	err := spans.span(mainLane, "study", "study", nil, func() error {
		r.studyStart = telemetry.Now()
		st, err := core.NewStudyWith(dev, opts, ws...)
		r.studyEnd = telemetry.Now()
		r.st = st
		return err
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := render(r.st, &buf, spans); err != nil {
		return nil, err
	}
	r.t1 = telemetry.Now()
	r.out = buf.Bytes()
	r.launches = ctr.Get(telemetry.CtrLaunches)
	return r, nil
}

// renderAll writes what `cactus all` prints after its study, in the CLI's
// order, with one span around the attribution tree and each figure.
func renderAll(st *core.Study, w io.Writer, spans *spanRec) error {
	steps := []struct {
		cat, name string
		f         func() error
	}{
		{"attribution", "Attribute", func() error { _ = core.Attribute(st); return nil }},
		{"render.fig1_7", "Figure 1", func() error { return core.Figure1(w) }},
		{"render.fig1_7", "Figure 2", func() error { return core.Figure2(st, w) }},
		{"render.fig1_7", "Table 1", func() error { return core.Table1(st, w) }},
		{"render.fig1_7", "Figure 3", func() error { return core.Figure3(st, w) }},
		{"render.fig1_7", "Figure 4", func() error { return core.Figure4(st, w) }},
		{"render.fig1_7", "Figure 5", func() error { return core.Figure5(st, w) }},
		{"render.fig1_7", "Figure 6", func() error { return core.Figure6(st, w) }},
		{"render.fig1_7", "Figure 7", func() error { return core.Figure7(st, w) }},
		{"render.fig8", "Figure 8", func() error { return core.Figure8(st, w) }},
		{"render.fig9", "Figure 9", func() error { return core.Figure9(st, w, clusters) }},
	}
	for _, s := range steps {
		if err := spans.span(mainLane, s.cat, s.name, nil, s.f); err != nil {
			return err
		}
	}
	return nil
}

// studySetup is the set-up `cactus all` pays before characterizing: the
// workload catalog and the profile cache handle.
func studySetup(dir string) ([]workloads.Workload, *core.ProfileCache, error) {
	cat, err := core.DefaultCatalog()
	if err != nil {
		return nil, nil, err
	}
	cache, err := core.OpenCache(dir)
	if err != nil {
		return nil, nil, err
	}
	return cat.All(), cache, nil
}

type studyInputs struct {
	ws    []workloads.Workload
	cache *core.ProfileCache
}

// runStudyAll measures the `cactus all` session: cold full-catalog studies
// into empty caches, each followed by warm re-runs from the cache it wrote.
func runStudyAll(cfg config, p plan, ref *reference, dir string, errOut io.Writer) (*measurement, error) {
	m := newMeasurement()
	dev := gpu.RTX3080()
	setupS, in, err := timedSetups(setupReps, filepath.Join(dir, "setup"), func(d string) (studyInputs, error) {
		ws, cache, err := studySetup(d)
		return studyInputs{ws, cache}, err
	})
	if err != nil {
		return nil, err
	}
	m.values["setup_s"] = setupS
	cold := &outputCheck{want: ref.StudyOutput}
	checkStudy := func(r *studyRun, what string, counted bool) {
		m.ops.check(cold.ok(r.out), "study_all %s: rendered output differs from the reference", what)
		got := countSim(r.st.Profiles)
		m.ops.check(got == ref.StudySim, "study_all %s: simulated statistics %+v, want %+v", what, got, ref.StudySim)
		if counted {
			m.ops.check(r.launches == ref.StudySim.Launches, "study_all %s: %d launches counted, want %d", what, r.launches, ref.StudySim.Launches)
		}
	}
	if cfg.trace {
		return traceStudyAll(cfg, p.workers, m, in.ws, dev, dir, checkStudy, errOut)
	}

	// The run alternates cold phases with blocks of warm re-runs from the
	// cache the cold phase just wrote, so both metrics sample the whole
	// run: the host's speed drifts with other tenants' load, and a warm
	// phase held to the end of the run saw only its last stretch.
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds) * time.Second)
	var colds []sample
	var warm, warmCPUms []float64
	for {
		cache, err := core.OpenCache(filepath.Join(dir, fmt.Sprintf("cold-%d", len(colds))))
		if err != nil {
			return nil, err
		}
		runtime.GC() // a cold run starts in a fresh process with an empty heap
		var r *studyRun
		s, err := timeOp(func() (err error) {
			r, err = studyOnce(dev, in.ws, cache, p.workers, nil, renderAll)
			return err
		})
		if err != nil {
			return nil, err
		}
		checkStudy(r, "cold", true)
		colds = append(colds, s)
		lat, cpuMs, err := warmBlock(time.Now().Add(warmSlice), minWarmPerBlock, func() (float64, error) {
			r, err := studyOnce(dev, in.ws, cache, p.workers, nil, renderAll)
			if err != nil {
				return 0, err
			}
			checkStudy(r, "warm", false)
			return r.t1 - r.t0, nil
		})
		if err != nil {
			return nil, err
		}
		warm = append(warm, lat...)
		warmCPUms = append(warmCPUms, cpuMs)
		// Another cycle must fit before the deadline, judged by the mean
		// cycle so far.
		if time.Now().Add(time.Since(start) / time.Duration(len(colds))).After(deadline) {
			break
		}
	}
	m.values["cold_cpu_s"] = median(cpus(colds))
	m.values["warm_cpu_ms"] = median(warmCPUms)
	fmt.Fprintf(errOut, "hostbench: study_all: %d cold phases, wall %.3f s, CPU %.3f s (medians), CPU each %.3f; %d warm re-runs, wall p50 %.3f ms, p90 %.3f ms, CPU ms/op per block %.3f\n",
		len(colds), median(walls(colds)), median(cpus(colds)), cpus(colds), len(warm), 1e3*quantile(warm, 0.5), 1e3*quantile(warm, 0.9), warmCPUms)
	return m, nil
}

// Run-shape constants shared by the workloads.
const (
	// setupReps is how many blocks of a study's set-up are timed.
	setupReps = 11
	// warmSlice is the length of the block of warm re-runs after each
	// cold phase; the warm metric is the median over the blocks, so a
	// burst of load from outside the process moves at most a few of them.
	warmSlice = time.Second
	// minWarmPerBlock gives a block's wall p90 ten samples beyond it.
	minWarmPerBlock = 100
)

func readGoStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// putGoDelta fills the go.* metrics with what the Go runtime did since
// before.
func putGoDelta(v map[string]float64, before runtime.MemStats) {
	after := readGoStats()
	v["go.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	v["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
	v["go.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
}

// traceStudyAll is the traced run of study_all: one untraced cold phase
// for reference, one traced cold phase, traced warm re-runs, and separate
// timings of the layers the figures call internally.
func traceStudyAll(cfg config, workers int, m *measurement, ws []workloads.Workload, dev gpu.DeviceConfig, dir string,
	checkStudy func(*studyRun, string, bool), errOut io.Writer) (*measurement, error) {
	v := m.values
	cat, err := workloads.NewCatalog(ws...)
	if err != nil {
		return nil, err
	}
	before := readGoStats()
	cache, err := core.OpenCache(filepath.Join(dir, "untraced"))
	if err != nil {
		return nil, err
	}
	plain, err := studyOnce(dev, ws, cache, workers, nil, renderAll)
	if err != nil {
		return nil, err
	}
	checkStudy(plain, "untraced cold", true)
	v["host.cold_wall_s"] = plain.t1 - plain.t0
	warm, _, err := warmBlock(time.Now(), untracedWarmRuns, func() (float64, error) {
		w, err := studyOnce(dev, ws, cache, workers, nil, renderAll)
		if err != nil {
			return 0, err
		}
		checkStudy(w, "untraced warm", false)
		return w.t1 - w.t0, nil
	})
	if err != nil {
		return nil, err
	}
	v["host.warm_wall_p50_ms"] = 1e3 * quantile(warm, 0.5)
	v["host.warm_wall_p90_ms"] = 1e3 * quantile(warm, 0.9)
	putGoDelta(v, before)

	spans := newSpanRec()
	if cache, err = core.OpenCache(filepath.Join(dir, "traced")); err != nil {
		return nil, err
	}
	r, err := studyOnce(dev, ws, cache, workers, spans, renderAll)
	if err != nil {
		return nil, err
	}
	checkStudy(r, "traced cold", false)
	events := spans.rec.Events()
	sp := splitStudy(events, r.studyStart, r.studyEnd, workers, cat)
	want := countSim(r.st.Profiles).Launches
	m.ops.check(int64(sp.launches) == want, "study_all traced cold: %d launch spans, want %d", sp.launches, want)
	putStudyLayers(v, sp)
	v["engine.worker_busy_frac"] = sp.busy / (float64(workers) * sp.wall)
	sim := countSim(r.st.Profiles)
	v["sim.modeled_ms"] = sim.ModeledMs
	v["sim.warp_insts"] = float64(sim.WarpInsts)
	coldWall := r.t1 - r.t0
	v["trace.overhead_frac"] = (coldWall - (plain.t1 - plain.t0)) / (plain.t1 - plain.t0)
	drive, driveCover := laneCover(events, mainLane, r.t0, r.t1)
	unaccounted := max(
		checkCoverage(&m.ops, "study_all cold driving lane", driveCover),
		checkCoverage(&m.ops, "study_all cold critical worker lane", sp.coverage))

	fmt.Fprintf(errOut, "hostbench: tracing overhead: traced cold %.3f s, untraced %.3f s (%+.1f%%)\n",
		coldWall, plain.t1-plain.t0, 100*v["trace.overhead_frac"])
	drive.print(errOut, "study_all cold phase, driving goroutine", coldWall)
	sp.layers.print(errOut, fmt.Sprintf("study_all cold study, %d worker lanes", workers), float64(workers)*sp.wall)

	// Store cost, measured by storing the study's profiles again into an
	// empty cache: inside the study it is folded into engine.other.
	store, err := core.OpenCache(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	for _, p := range r.st.Profiles {
		start := time.Now()
		if err := store.Store(p, dev); err != nil {
			return nil, err
		}
		v["cache.store_s"] += time.Since(start).Seconds()
	}

	// Warm re-runs from the traced cold phase's cache. Figures 8 and 9
	// run the stats layer inside them; after each re-run, outside its
	// window, the same stats calls are timed on their own.
	var warmIters []layerTimes
	var warmWalls []float64
	for i := 0; i < tracedWarmRuns; i++ {
		w, err := studyOnce(dev, ws, cache, workers, spans, renderAll)
		if err != nil {
			return nil, err
		}
		checkStudy(w, "traced warm", false)
		events := spans.rec.Events()
		l, cover := laneCover(events, mainLane, w.t0, w.t1)
		unaccounted = max(unaccounted, checkCoverage(&m.ops, "study_all warm driving lane", cover))
		probes := splitStudy(events, w.studyStart, w.studyEnd, workers, cat)
		v["cache.probe_s"] += probes.probeS
		v["cache.probes"] += float64(probes.probes)
		v["cache.hits"] += float64(probes.hits)
		correlate, cluster, err := timeStats(w.st)
		if err != nil {
			return nil, err
		}
		l["stats.correlate"], l["stats.cluster"] = correlate, cluster
		l["render.fig8 (self)"] = l["render.fig8"] - correlate
		l["render.fig9 (self)"] = l["render.fig9"] - cluster
		warmIters = append(warmIters, l)
		warmWalls = append(warmWalls, w.t1-w.t0)
	}
	at := func(layer string) float64 {
		var xs []float64
		for _, l := range warmIters {
			xs = append(xs, l[layer])
		}
		return median(xs)
	}
	v["attribution.ms"] = 1e3 * at("attribution")
	v["render.fig1_7_ms"] = 1e3 * at("render.fig1_7")
	v["render.fig8_ms"] = 1e3 * at("render.fig8")
	v["render.fig9_ms"] = 1e3 * at("render.fig9")
	v["stats.correlate_ms"] = 1e3 * at("stats.correlate")
	v["stats.cluster_ms"] = 1e3 * at("stats.cluster")
	shares := layerTimes{}
	for _, k := range []string{"study", "attribution", "render.fig1_7", "render.fig8 (self)", "stats.correlate", "render.fig9 (self)", "stats.cluster"} {
		shares[k] = at(k)
	}
	shares.print(errOut, fmt.Sprintf("study_all warm re-run (study = reading the cache), medians of %d", tracedWarmRuns), median(warmWalls))
	v["trace.unaccounted_frac"] = unaccounted
	if v["cache.probes"] > 0 {
		v["cache.hit_ratio"] = v["cache.hits"] / v["cache.probes"]
	}
	return m, spans.write(traceDir(cfg), fmt.Sprintf("study_all-seed%d", cfg.seed), errOut)
}

// tracedWarmRuns is how many traced warm re-runs a traced run makes; the
// per-layer warm figures are their medians. untracedWarmRuns is how many
// untraced ones give the host.warm_wall_* figures.
const (
	tracedWarmRuns   = 30
	untracedWarmRuns = 200
)

// timeStats times core.Correlate on both Figure 8 groups and core.Cluster
// on the Figure 9 observations.
func timeStats(st *core.Study) (correlate, cluster float64, err error) {
	var cactus, prt []*core.Profile
	for _, p := range st.Profiles {
		if p.Workload.Suite() == workloads.Cactus {
			cactus = append(cactus, p)
		} else {
			prt = append(prt, p)
		}
	}
	groups := [][]core.Observation{core.DominantObservations(cactus, 0.7), core.DominantObservations(prt, 0.7)}
	all := core.DominantObservations(st.Profiles, 0.7)
	model := roofline.ForDevice(st.Device)
	start := time.Now()
	for _, obs := range groups {
		if _, err := core.Correlate(obs); err != nil {
			return 0, 0, err
		}
	}
	mid := time.Now()
	if _, err := core.Cluster(all, model, 6, clusters); err != nil {
		return 0, 0, err
	}
	return mid.Sub(start).Seconds(), time.Since(mid).Seconds(), nil
}

// traceDir is where traced runs write their Chrome traces.
func traceDir(cfg config) string { return filepath.Join(filepath.Dir(cfg.workDir), "traces") }

// recordStudy produces study_all's reference output and statistics.
func recordStudy(dir string) (string, simCounts, error) {
	ws, cache, err := studySetup(filepath.Join(dir, "study"))
	if err != nil {
		return "", simCounts{}, err
	}
	r, err := studyOnce(gpu.RTX3080(), ws, cache, runtime.NumCPU(), nil, renderAll)
	if err != nil {
		return "", simCounts{}, err
	}
	sim := countSim(r.st.Profiles)
	if r.launches != sim.Launches {
		return "", simCounts{}, fmt.Errorf("study_all: devices counted %d launches, profiles hold %d", r.launches, sim.Launches)
	}
	return digest(r.out), sim, nil
}
