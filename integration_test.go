// Integration tests: the paper's headline observations asserted over the
// full 42-workload catalog in one end-to-end run. These reuse the benchmark
// harness's cached study, so `go test` pays the full characterization cost
// once.
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/roofline"
	"repro/internal/workloads"
)

func fullStudyT(t *testing.T) (*core.Study, *core.Study, *core.Study) {
	t.Helper()
	studyOnce.Do(func() {
		cat, err := core.DefaultCatalog()
		if err != nil {
			fullStudyErr = err
			return
		}
		fullStudy, fullStudyErr = core.NewStudy(gpu.RTX3080(), cat.All()...)
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
		t.Fatal(fullStudyErr)
	}
	return fullStudy, cactusStudy, baselineStudy
}

// TestObservation1And2 — Cactus executes many more kernels (tens) than the
// traditional benchmarks (one or a few).
func TestObservation1And2(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog characterization")
	}
	_, cactus, base := fullStudyT(t)
	var cactusAvg, baseAvg float64
	for _, p := range cactus.Profiles {
		cactusAvg += float64(len(p.Kernels))
		if len(p.Kernels) < 8 {
			t.Errorf("%s: only %d kernels (Table I minimum is 8)", p.Abbr(), len(p.Kernels))
		}
	}
	cactusAvg /= float64(len(cactus.Profiles))
	for _, p := range base.Profiles {
		baseAvg += float64(len(p.Kernels))
	}
	baseAvg /= float64(len(base.Profiles))
	if cactusAvg < 5*baseAvg {
		t.Errorf("Cactus avg %.1f kernels vs baselines %.1f: expected >= 5x gap", cactusAvg, baseAvg)
	}
}

// TestObservation5 — the Cactus applications are primarily memory-intensive
// in aggregate, with GMS the clear compute-side exception.
func TestObservation5(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog characterization")
	}
	_, cactus, _ := fullStudyT(t)
	model := roofline.ForDevice(cactus.Device)
	mem := 0
	for _, p := range cactus.Profiles {
		if model.Classify(p.AggII) == roofline.MemoryIntensive {
			mem++
		}
	}
	if mem != 8 {
		t.Errorf("%d/10 Cactus apps memory-intensive, want 8 (paper and EXPERIMENTS.md: all but GMS and DCG)", mem)
	}
	gms, err := cactus.Profile("GMS")
	if err != nil {
		t.Fatal(err)
	}
	if model.Classify(gms.AggII) != roofline.ComputeIntensive {
		t.Errorf("GMS aggregate II %.2f should be compute-intensive", gms.AggII)
	}
}

// TestObservation9 — Cactus correlates with at least as many metrics as the
// baselines (its behavior is more complex).
func TestObservation9(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog characterization")
	}
	_, cactus, base := fullStudyT(t)
	cc, err := core.Correlate(core.DominantObservations(cactus.Profiles, 0.7))
	if err != nil {
		t.Fatal(err)
	}
	pc, err := core.Correlate(core.DominantObservations(base.Profiles, 0.7))
	if err != nil {
		t.Fatal(err)
	}
	if cc.StrongOrWeakCount() < pc.StrongOrWeakCount() {
		t.Errorf("Cactus correlated pairs %d < baselines %d — contradicts Observation #9",
			cc.StrongOrWeakCount(), pc.StrongOrWeakCount())
	}
}

// TestObservation11And12 — kernels of single Cactus applications spread
// across clusters, and Cactus covers at least as much of the workload space
// as the baselines combined.
func TestObservation11And12(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog characterization")
	}
	full, _, _ := fullStudyT(t)
	obs := core.DominantObservations(full.Profiles, 0.7)
	ca, err := core.Cluster(obs, roofline.ForDevice(full.Device), 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Observation #11: ML workloads spread over >= 2 clusters each.
	for _, abbr := range []string{"DCG", "NST", "RFL", "SPT", "LGT"} {
		if n := clustersOfWorkload(ca, abbr); n < 2 {
			t.Errorf("%s dominant kernels confined to %d cluster(s)", abbr, n)
		}
	}
	// Observation #12: Cactus covers >= baseline coverage and dominates at
	// least one cluster.
	cactusCov := ca.ClustersCoveredBy(workloads.Cactus)
	for _, s := range []workloads.Suite{workloads.Parboil, workloads.Rodinia, workloads.Tango} {
		if cov := ca.ClustersCoveredBy(s); cov > cactusCov {
			t.Errorf("%s covers %d clusters > Cactus %d", s, cov, cactusCov)
		}
	}
	if len(ca.ClustersDominatedBy(workloads.Cactus)) == 0 {
		t.Error("no Cactus-dominated clusters — contradicts Observation #12")
	}
}

// clustersOfWorkload counts the distinct clusters the given workload's
// dominant kernels land in — Observation #11's spread measure.
func clustersOfWorkload(ca *core.ClusterAnalysis, abbr string) int {
	seen := map[int]bool{}
	for i, o := range ca.Observations {
		if o.Workload == abbr {
			seen[ca.Assign[i]] = true
		}
	}
	return len(seen)
}

// TestGraphWorkloadsSlowest — GST and GRU achieve the lowest aggregate
// performance of all Cactus workloads (Fig. 5).
func TestGraphWorkloadsSlowest(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog characterization")
	}
	_, cactus, _ := fullStudyT(t)
	gst, err := cactus.Profile("GST")
	if err != nil {
		t.Fatal(err)
	}
	gru, err := cactus.Profile("GRU")
	if err != nil {
		t.Fatal(err)
	}
	worstGraph := gst.AggGIPS
	if gru.AggGIPS > worstGraph {
		worstGraph = gru.AggGIPS
	}
	for _, p := range cactus.Profiles {
		if p.Abbr() == "GST" || p.Abbr() == "GRU" {
			continue
		}
		// LGT sits just above the graph workloads in the paper too; allow a
		// small tolerance around the boundary.
		if p.AggGIPS < 0.9*worstGraph {
			t.Errorf("%s (%.1f GIPS) slower than the graph workloads (%.1f)", p.Abbr(), p.AggGIPS, worstGraph)
		}
	}
}
