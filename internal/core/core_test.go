package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gpu"
	"repro/internal/roofline"
	"repro/internal/suites/parboil"
	"repro/internal/units"
	"repro/internal/workloads"
)

// quickStudy characterizes a small, fast subset once per test binary.
var cachedStudy *Study

func study(t *testing.T) *Study {
	t.Helper()
	if cachedStudy != nil {
		return cachedStudy
	}
	cat, err := DefaultCatalog()
	if err != nil {
		t.Fatal(err)
	}
	// A fast mixed subset: molecular + graph + two baselines.
	var ws []workloads.Workload
	for _, abbr := range []string{"GMS", "LMC", "GRU", "pb-sgemm", "pb-spmv", "rd-kmeans", "rd-lud"} {
		w, err := cat.Lookup(abbr)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	st, err := NewStudy(gpu.RTX3080(), ws...)
	if err != nil {
		t.Fatal(err)
	}
	cachedStudy = st
	return st
}

func TestDefaultCatalog(t *testing.T) {
	cat, err := DefaultCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(cat.All()); n != 42 { // 10 Cactus + 11 Parboil + 18 Rodinia + 3 Tango
		t.Errorf("catalog has %d workloads, want 42", n)
	}
	if got := len(cat.BySuite(workloads.Cactus)); got != 10 {
		t.Errorf("cactus workloads = %d, want 10 (Table I)", got)
	}
	if _, err := cat.Lookup("GMS"); err != nil {
		t.Error(err)
	}
	if _, err := cat.Lookup("nope"); err == nil {
		t.Error("unknown abbr should fail")
	}
	// Duplicate protection.
	if _, err := workloads.NewCatalog(CactusWorkloads()[0], CactusWorkloads()[0]); err == nil {
		t.Error("duplicate abbreviation should fail")
	}
}

func TestProfileBasics(t *testing.T) {
	st := study(t)
	p, err := st.Profile("GMS")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Kernels) != 9 {
		t.Errorf("GMS kernels = %d, want 9 (Table I)", len(p.Kernels))
	}
	// Shares sum to ~1 and are sorted descending.
	var sum units.Fraction
	for i, k := range p.Kernels {
		sum += k.TimeShare
		if i > 0 && k.TimeShare > p.Kernels[i-1].TimeShare+1e-12 {
			t.Error("kernels not sorted by time share")
		}
	}
	if math.Abs(sum.Float()-1) > 1e-9 {
		t.Errorf("shares sum to %g", sum)
	}
	if p.KernelsFor(0.7) > 4 {
		t.Errorf("GMS needs %d kernels for 70%%, want <= 4 (paper: 3)", p.KernelsFor(0.7))
	}
	cum := p.CumulativeShares(0)
	if cum[len(cum)-1] < 0.999 {
		t.Error("cumulative distribution must reach 1")
	}
	if len(p.CumulativeShares(3)) != 3 {
		t.Error("maxK truncation")
	}
	if p.WeightedAvgInstsPerKernel() <= 0 {
		t.Error("weighted avg insts")
	}
	if got := len(p.DominantKernels(0.7)); got != p.KernelsFor(0.7) {
		t.Errorf("dominant set size %d != KernelsFor %d", got, p.KernelsFor(0.7))
	}
}

// validatePoint reports a point that no kernel can reach on m: a negative or
// NaN coordinate, or GIPS above the roof or the peak.
func validatePoint(m roofline.Model, p roofline.Point) error {
	if p.II < 0 || math.IsNaN(p.II) {
		return fmt.Errorf("roofline: %s: invalid intensity %g", p.Label, p.II)
	}
	if p.GIPS < 0 || math.IsNaN(p.GIPS) {
		return fmt.Errorf("roofline: %s: invalid GIPS %g", p.Label, p.GIPS)
	}
	// Allow a small tolerance over the roof for rounding in aggregation.
	if !math.IsInf(p.II, 1) && p.GIPS > 1.05*m.Roof(p.II) {
		return fmt.Errorf("roofline: %s: GIPS %.1f exceeds roof %.1f at II %.2f",
			p.Label, p.GIPS, m.Roof(p.II), p.II)
	}
	if p.GIPS > 1.001*m.PeakGIPS {
		return fmt.Errorf("roofline: %s: GIPS %.1f exceeds peak %.1f", p.Label, p.GIPS, m.PeakGIPS)
	}
	return nil
}

// TestValidatePoint checks the oracle itself: one that accepts every point
// would let TestAggregatePointsOnRoofline pass on any study.
func TestValidatePoint(t *testing.T) {
	m := roofline.ForDevice(gpu.RTX3080())
	for _, tc := range []struct {
		p    roofline.Point
		fail bool
	}{
		{roofline.Point{Label: "ok", II: 5, GIPS: 50}, false},
		{roofline.Point{Label: "over", II: 1, GIPS: 100}, true},
		{roofline.Point{Label: "nan", II: math.NaN(), GIPS: 1}, true},
		{roofline.Point{Label: "neg", II: 1, GIPS: -1}, true},
		{roofline.Point{Label: "inf", II: math.Inf(1), GIPS: 100}, false},
		{roofline.Point{Label: "inf-over", II: math.Inf(1), GIPS: 600}, true},
	} {
		if err := validatePoint(m, tc.p); (err != nil) != tc.fail {
			t.Errorf("%s: err = %v, want failure %v", tc.p.Label, err, tc.fail)
		}
	}
}

func TestAggregatePointsOnRoofline(t *testing.T) {
	st := study(t)
	model := roofline.ForDevice(st.Device)
	for _, p := range st.Profiles {
		pt := p.AggregatePoint()
		if err := validatePoint(model, pt); err != nil {
			t.Errorf("%s: %v", p.Abbr(), err)
		}
		for _, kp := range p.KernelPoints() {
			if err := validatePoint(model, kp); err != nil {
				t.Errorf("%v", err)
			}
		}
	}
	// GMS is the compute-intensive Cactus workload (Fig. 5).
	gms, _ := st.Profile("GMS")
	if model.Classify(gms.AggII) != roofline.ComputeIntensive {
		t.Errorf("GMS aggregate II = %.2f, want compute-intensive", gms.AggII)
	}
	// GRU is memory-intensive with the lowest performance.
	gru, _ := st.Profile("GRU")
	if model.Classify(gru.AggII) != roofline.MemoryIntensive {
		t.Errorf("GRU aggregate II = %.2f, want memory-intensive", gru.AggII)
	}
	for _, p := range st.Profiles {
		if p.Abbr() != "GRU" && p.AggGIPS < gru.AggGIPS {
			t.Errorf("%s (%.2f GIPS) below GRU (%.2f) — GRU should be slowest", p.Abbr(), p.AggGIPS, gru.AggGIPS)
		}
	}
}

func TestDominantObservationsAndCorrelation(t *testing.T) {
	st := study(t)
	obs := DominantObservations(st.Profiles, 0.7)
	if len(obs) < 7 {
		t.Fatalf("only %d dominant observations", len(obs))
	}
	res, err := Correlate(obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Abs) != 4 || len(res.Abs[0]) != 11 {
		t.Fatalf("heatmap shape %dx%d, want 4x11", len(res.Abs), len(res.Abs[0]))
	}
	for _, row := range res.Abs {
		for _, v := range row {
			if v < 0 || v > 1 {
				t.Fatalf("|PCC| = %g out of [0,1]", v)
			}
		}
	}
	if res.StrongOrWeakCount() == 0 {
		t.Error("no correlated pairs at all is implausible")
	}
	if _, err := Correlate(obs[:2]); err == nil {
		t.Error("too few observations should fail")
	}
}

func TestClusterPipeline(t *testing.T) {
	st := study(t)
	obs := DominantObservations(st.Profiles, 0.7)
	model := roofline.ForDevice(st.Device)
	k := 4
	ca, err := Cluster(obs, model, 6, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(ca.Assign) != len(obs) {
		t.Fatal("assignment length")
	}
	ids := map[int]bool{}
	for _, c := range ca.Assign {
		if c < 0 || c >= k {
			t.Fatalf("cluster id %d out of range", c)
		}
		ids[c] = true
	}
	if len(ids) != k {
		t.Errorf("%d distinct clusters, want %d", len(ids), k)
	}
	// Coverage utilities are consistent.
	covered := ca.ClustersCoveredBy(workloads.Cactus)
	if covered < 1 || covered > k {
		t.Errorf("cactus covers %d clusters", covered)
	}
	for _, s := range []workloads.Suite{workloads.Cactus, workloads.Parboil, workloads.Rodinia} {
		shares := ca.SuiteShareByCluster(s)
		if len(shares) != k {
			t.Fatal("share vector length")
		}
		for _, f := range shares {
			if f < 0 || f > 1 {
				t.Fatalf("share %g", f)
			}
		}
	}
	if _, err := Cluster(obs[:2], model, 4, 8); err == nil {
		t.Error("too few observations for k should fail")
	}
}

func TestAmdahlExample(t *testing.T) {
	// The paper's Section II-C example: shares {0.25, 0.2, 0.2, 0.2, 0.15},
	// 20% target speedup => the dominant kernel alone must double.
	dom, uni, err := AmdahlExample([]float64{0.25, 0.2, 0.2, 0.2, 0.15}, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dom-3) > 0.01 {
		// 1/1.2 - 0.75 = 0.0833...; 0.25/0.08333 = 3.
		t.Errorf("dominant-kernel speedup = %g, want 3.0", dom)
	}
	if uni != 1.2 {
		t.Errorf("uniform speedup = %g", uni)
	}
	// Single-kernel case: kernel speedup equals target.
	dom, _, err = AmdahlExample([]float64{1}, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dom-1.2) > 1e-9 {
		t.Errorf("single-kernel speedup = %g, want 1.2", dom)
	}
	// Infeasible: dominant share too small for the target.
	dom, _, err = AmdahlExample([]float64{0.4, 0.3, 0.3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(dom, 1) {
		t.Errorf("infeasible target should need infinite speedup, got %g", dom)
	}
	if _, _, err := AmdahlExample([]float64{0.5, 0.4}, 1.2); err == nil {
		t.Error("shares not summing to 1 should fail")
	}
	if _, _, err := AmdahlExample(nil, 1.2); err == nil {
		t.Error("empty shares should fail")
	}
}

func TestStudyLookupErrors(t *testing.T) {
	st := study(t)
	if _, err := st.Profile("missing"); err == nil {
		t.Error("missing profile should fail")
	}
	if got := len(st.BySuite(workloads.Parboil)); got != 2 {
		t.Errorf("parboil profiles in study = %d, want 2", got)
	}
}

func TestCharacterizeErrors(t *testing.T) {
	bad := gpu.DeviceConfig{}
	if _, err := Characterize(parboil.All()[0], bad); err == nil {
		t.Error("invalid device should fail")
	}
}
