// Package repro's benchmark harness regenerates every table and figure of
// the paper (Figs. 1-9, Table I) plus the ablation studies DESIGN.md calls
// out. Each benchmark reports the figure's headline statistics as custom
// metrics so `go test -bench` output records paper-vs-measured shape:
//
//	go test -bench=. -benchmem
package repro

import (
	"io"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/graphx"
	"repro/internal/isa"
	"repro/internal/memsim"
	"repro/internal/profiler"
	"repro/internal/roofline"
	"repro/internal/stats"
	"repro/internal/survey"
	"repro/internal/units"
	"repro/internal/workloads"
)

var (
	studyOnce     sync.Once
	fullStudy     *core.Study
	fullStudyErr  error
	baselineStudy *core.Study
	cactusStudy   *core.Study
)

func studies(b *testing.B) (*core.Study, *core.Study, *core.Study) {
	b.Helper()
	studyOnce.Do(func() {
		cat, err := core.DefaultCatalog()
		if err != nil {
			fullStudyErr = err
			return
		}
		// One worker per CPU; assembly order is deterministic, so every
		// figure below is byte-identical to a serial characterization.
		fullStudy, fullStudyErr = core.NewStudyWith(gpu.RTX3080(), core.StudyOptions{}, cat.All()...)
		if fullStudyErr != nil {
			return
		}
		baselineStudy = &core.Study{Device: fullStudy.Device}
		cactusStudy = &core.Study{Device: fullStudy.Device}
		for _, p := range fullStudy.Profiles {
			if p.Workload.Suite() == workloads.Cactus {
				cactusStudy.Add(p)
			} else {
				baselineStudy.Add(p)
			}
		}
	})
	if fullStudyErr != nil {
		b.Fatal(fullStudyErr)
	}
	return fullStudy, cactusStudy, baselineStudy
}

// BenchmarkFigure1 regenerates the benchmark-suite popularity survey.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := core.Figure1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	top, _ := survey.Total(survey.Ranking()[0])
	b.ReportMetric(float64(top), "rodinia_total_papers")
}

// BenchmarkFigure2 regenerates the baseline GPU-time distribution and
// reports the single-kernel concentration fraction (paper: ~70%).
func BenchmarkFigure2(b *testing.B) {
	_, _, base := studies(b)
	for i := 0; i < b.N; i++ {
		if err := core.Figure2(base, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	oneKernel := 0
	for _, p := range base.Profiles {
		if p.KernelsFor(0.7) == 1 {
			oneKernel++
		}
	}
	b.ReportMetric(100*float64(oneKernel)/float64(len(base.Profiles)), "pct_1kernel_70pct")
}

// BenchmarkTable1 regenerates the Cactus summary table and reports the
// kernel-count range (paper: 8..66).
func BenchmarkTable1(b *testing.B) {
	_, cactus, _ := studies(b)
	for i := 0; i < b.N; i++ {
		if err := core.Table1(cactus, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	minK, maxK := 1<<30, 0
	for _, p := range cactus.Profiles {
		if n := len(p.Kernels); n < minK {
			minK = n
		}
		if n := len(p.Kernels); n > maxK {
			maxK = n
		}
	}
	b.ReportMetric(float64(minK), "min_kernels")
	b.ReportMetric(float64(maxK), "max_kernels")
}

// BenchmarkFigure3 regenerates the Cactus cumulative time distribution and
// reports the maximum dominant-set size (paper: up to 14).
func BenchmarkFigure3(b *testing.B) {
	_, cactus, _ := studies(b)
	for i := 0; i < b.N; i++ {
		if err := core.Figure3(cactus, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	maxK := 0
	for _, p := range cactus.Profiles {
		if k := p.KernelsFor(0.7); k > maxK {
			maxK = k
		}
	}
	b.ReportMetric(float64(maxK), "max_kernels_for_70pct")
}

// BenchmarkFigure4 regenerates the baseline rooflines and reports the
// number of workloads with mixed kernel behavior (paper: 2 of 31-32).
func BenchmarkFigure4(b *testing.B) {
	_, _, base := studies(b)
	for i := 0; i < b.N; i++ {
		if err := core.Figure4(base, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	model := roofline.ForDevice(base.Device)
	mixed := 0
	for _, p := range base.Profiles {
		var mem, cmp units.Fraction
		for _, k := range p.Kernels {
			if k.TimeShare < 0.1 {
				continue
			}
			if model.Classify(k.II()) == roofline.MemoryIntensive {
				mem += k.TimeShare
			} else {
				cmp += k.TimeShare
			}
		}
		if mem > 0.1 && cmp > 0.1 {
			mixed++
		}
	}
	b.ReportMetric(float64(mixed), "mixed_workloads")
}

// BenchmarkFigure5 regenerates the Cactus aggregate roofline and reports
// the memory-intensive fraction (paper: all but GMS and SPT).
func BenchmarkFigure5(b *testing.B) {
	_, cactus, _ := studies(b)
	for i := 0; i < b.N; i++ {
		if err := core.Figure5(cactus, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	model := roofline.ForDevice(cactus.Device)
	mem := 0
	for _, p := range cactus.Profiles {
		if model.Classify(p.AggII) == roofline.MemoryIntensive {
			mem++
		}
	}
	b.ReportMetric(float64(mem), "memory_intensive_apps")
}

// BenchmarkFigure6 regenerates the molecular/graph per-kernel rooflines.
func BenchmarkFigure6(b *testing.B) {
	_, cactus, _ := studies(b)
	for i := 0; i < b.N; i++ {
		if err := core.Figure6(cactus, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7 regenerates the ML per-kernel rooflines and reports how
// many dominant ML kernels sit near the memory roof (Observation #8).
func BenchmarkFigure7(b *testing.B) {
	_, cactus, _ := studies(b)
	for i := 0; i < b.N; i++ {
		if err := core.Figure7(cactus, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	model := roofline.ForDevice(cactus.Device)
	near, total := 0, 0
	for _, p := range cactus.Profiles {
		if p.Workload.Domain() != workloads.MachineL {
			continue
		}
		for _, k := range p.DominantKernels(0.7) {
			total++
			if model.NearMemoryRoof(roofline.Point{II: k.II(), GIPS: k.GIPS()}, 0.5) {
				near++
			}
		}
	}
	b.ReportMetric(float64(near), "ml_dominant_near_mem_roof")
	b.ReportMetric(float64(total), "ml_dominant_total")
}

// BenchmarkFigure8 regenerates the correlation heatmaps and reports the
// correlated-pair counts (paper: Cactus correlates with more metrics).
func BenchmarkFigure8(b *testing.B) {
	full, cactus, base := studies(b)
	for i := 0; i < b.N; i++ {
		if err := core.Figure8(full, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	cc, err := core.Correlate(core.DominantObservations(cactus.Profiles, 0.7))
	if err != nil {
		b.Fatal(err)
	}
	pc, err := core.Correlate(core.DominantObservations(base.Profiles, 0.7))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(cc.StrongOrWeakCount()), "cactus_correlated_pairs")
	b.ReportMetric(float64(pc.StrongOrWeakCount()), "prt_correlated_pairs")
}

// BenchmarkFigure9 regenerates the clustering dendrogram and reports the
// coverage statistics (Observation #12).
func BenchmarkFigure9(b *testing.B) {
	full, _, _ := studies(b)
	for i := 0; i < b.N; i++ {
		if err := core.Figure9(full, io.Discard, 6); err != nil {
			b.Fatal(err)
		}
	}
	obs := core.DominantObservations(full.Profiles, 0.7)
	ca, err := core.Cluster(obs, roofline.ForDevice(full.Device), 6, 6)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(ca.ClustersCoveredBy(workloads.Cactus)), "cactus_clusters_covered")
	b.ReportMetric(float64(len(ca.ClustersDominatedBy(workloads.Cactus))), "cactus_clusters_dominated")
	b.ReportMetric(float64(len(obs)), "dominant_kernels")
}

// --- Study construction ------------------------------------------------------
//
// The benchmarks below time the characterization step itself — the cost
// every `cactus figure/table/all` pays before rendering — serially, on a
// worker pool, and against a warm profile cache.

// BenchmarkStudySerial characterizes the ten Cactus workloads one at a
// time: the pre-PR baseline path.
func BenchmarkStudySerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.NewStudy(gpu.RTX3080(), core.CactusWorkloads()...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStudyParallel characterizes the same workloads on 8 workers.
func BenchmarkStudyParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := core.NewStudyWith(gpu.RTX3080(), core.StudyOptions{Workers: 8}, core.CactusWorkloads()...)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStudyWarmCache characterizes the full 42-workload catalog (the
// Figure 8/9 study) against a primed profile cache: the steady-state cost
// of every repeated `cactus figure N`.
func BenchmarkStudyWarmCache(b *testing.B) {
	cat, err := core.DefaultCatalog()
	if err != nil {
		b.Fatal(err)
	}
	cache, err := core.OpenCache(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	opts := core.StudyOptions{Workers: 8, Cache: cache}
	if _, err := core.NewStudyWith(gpu.RTX3080(), opts, cat.All()...); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewStudyWith(gpu.RTX3080(), opts, cat.All()...); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ---------------------------------------------------------------

// BenchmarkAblationMemoryModes contrasts the two memory-resolution paths
// (declarative streams vs trace replay) on the same logical kernel.
func BenchmarkAblationMemoryModes(b *testing.B) {
	dev, err := gpu.New(gpu.RTX3080())
	if err != nil {
		b.Fatal(err)
	}
	const bytes = 8 << 20
	var mix isa.Mix
	mix.Add(isa.FP32, bytes/64)
	mix.Add(isa.LoadGlobal, bytes/128)
	for i := 0; i < b.N; i++ {
		// Model mode.
		_, err := dev.Launch(gpu.KernelSpec{
			Name: "ablate_model", Grid: gpu.D1(1024), Block: gpu.D1(256), Mix: mix,
			Streams: []memsim.Stream{{
				Name: "s", FootprintBytes: bytes, AccessBytes: bytes,
				ElemBytes: 4, Pattern: memsim.Coalesced, Partitioned: true,
			}},
		})
		if err != nil {
			b.Fatal(err)
		}
		// Trace mode over the same sweep.
		_, err = dev.Launch(gpu.KernelSpec{
			Name: "ablate_trace", Grid: gpu.D1(1024), Block: gpu.D1(256), Mix: mix,
			TraceCoverage: 1,
			Trace: func(h *memsim.Hierarchy) {
				for a := uint64(0); a < bytes; a += 128 {
					h.AccessBatch([]uint64{a})
				}
			},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFAMD contrasts FAMD-denoised clustering against
// clustering on raw standardized metrics (the paper's argument for FAMD).
func BenchmarkAblationFAMD(b *testing.B) {
	full, _, _ := studies(b)
	obs := core.DominantObservations(full.Profiles, 0.7)
	model := roofline.ForDevice(full.Device)
	var famdSil, rawSil float64
	for i := 0; i < b.N; i++ {
		ca, err := core.Cluster(obs, model, 6, 6)
		if err != nil {
			b.Fatal(err)
		}
		famdSil, err = stats.SilhouetteScore(ca.FAMD.Coords, ca.Assign)
		if err != nil {
			b.Fatal(err)
		}
		// Raw: standardized quantitative metrics only, no FAMD denoising.
		raw := make([][]float64, len(obs))
		for j := range raw {
			raw[j] = make([]float64, profiler.NumMetrics)
		}
		col := make([]float64, len(obs))
		for _, m := range profiler.Metrics() {
			for j, o := range obs {
				col[j] = o.Metrics.Get(m)
			}
			for j, z := range stats.Standardize(col) {
				raw[j][m] = z
			}
		}
		dend, err := stats.Agglomerative(raw, nil)
		if err != nil {
			b.Fatal(err)
		}
		assign, err := dend.Cut(6)
		if err != nil {
			b.Fatal(err)
		}
		rawSil, err = stats.SilhouetteScore(raw, assign)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(famdSil, "famd_silhouette")
	b.ReportMetric(rawSil, "raw_silhouette")
}

// BenchmarkAblationBFS contrasts the Gunrock-style frontier BFS with the
// Rodinia-style all-vertices formulation on the same graph — the paper's
// motivating top-down vs bottom-up contrast.
func BenchmarkAblationBFS(b *testing.B) {
	g, err := graphx.RMAT(14, 8, 99)
	if err != nil {
		b.Fatal(err)
	}
	src := g.LargestComponentVertex()
	dev, err := gpu.New(gpu.RTX3080())
	if err != nil {
		b.Fatal(err)
	}
	var gunrockTime float64
	for i := 0; i < b.N; i++ {
		sess := profiler.NewSession(dev)
		if _, err := graphx.GunrockBFS(g, src, graphx.BFSConfig{}, sess); err != nil {
			b.Fatal(err)
		}
		gunrockTime = sess.TotalTime().Float()
	}
	b.ReportMetric(gunrockTime*1e3, "gunrock_ms")
}

// BenchmarkAblationDevice re-characterizes two clearly-sided workloads on
// the GTX 1080 model and reports cross-device speedups — the paper's
// future-work platform sensitivity.
func BenchmarkAblationDevice(b *testing.B) {
	cat, err := core.DefaultCatalog()
	if err != nil {
		b.Fatal(err)
	}
	w1, _ := cat.Lookup("pb-cutcp")
	w2, _ := cat.Lookup("pb-spmv")
	var cutcpSpeedup, spmvSpeedup float64
	for i := 0; i < b.N; i++ {
		a, err := core.NewStudy(gpu.RTX3080(), w1, w2)
		if err != nil {
			b.Fatal(err)
		}
		g, err := core.NewStudy(gpu.GTX1080(), w1, w2)
		if err != nil {
			b.Fatal(err)
		}
		cmps, err := core.CompareDevices(a, g)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cmps {
			if !c.SideStable {
				b.Fatalf("%s flipped roofline sides", c.Abbr)
			}
			switch c.Abbr {
			case "pb-cutcp":
				cutcpSpeedup = c.Speedup
			case "pb-spmv":
				spmvSpeedup = c.Speedup
			}
		}
	}
	b.ReportMetric(cutcpSpeedup, "cutcp_3080_over_1080")
	b.ReportMetric(spmvSpeedup, "spmv_3080_over_1080")
}

// BenchmarkAblationAmdahl evaluates the Section II-C dominant-kernel
// speedup model on the paper's five-kernel example.
func BenchmarkAblationAmdahl(b *testing.B) {
	shares := []float64{0.25, 0.2, 0.2, 0.2, 0.15}
	var dom float64
	for i := 0; i < b.N; i++ {
		var err error
		dom, _, err = core.AmdahlExample(shares, 1.2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(dom, "dominant_speedup_needed")
}
