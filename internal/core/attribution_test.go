package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/gpu"
	"repro/internal/profiler"
	"repro/internal/telemetry"
)

// TestAttributeStudyIdentity — the attribution tree over a study of cheap
// workloads passes the sum-to-1 identity at every node, carries the
// study's totals at the root, and orders workloads in study order.
func TestAttributeStudyIdentity(t *testing.T) {
	cfg := gpu.RTX3080()
	ws := cheapSet(6)
	st, err := NewStudyWith(cfg, StudyOptions{Workers: 1}, ws...)
	if err != nil {
		t.Fatal(err)
	}
	root := Attribute(st)
	if v := telemetry.CheckAttribution(root); len(v) != 0 {
		t.Fatalf("attribution identity violated: %v", v)
	}
	if root.Level != telemetry.LevelStudy || root.Name != cfg.Name {
		t.Errorf("root = %s %q, want study %q", root.Level, root.Name, cfg.Name)
	}
	if len(root.Children) != len(ws) {
		t.Fatalf("root has %d workloads, want %d", len(root.Children), len(ws))
	}
	var wantTime, gotLaunches float64
	for i, p := range st.Profiles {
		wantTime += p.TotalTime.Float()
		if root.Children[i].Name != p.Abbr() {
			t.Errorf("child %d = %q, want %q (study order)", i, root.Children[i].Name, p.Abbr())
		}
		for _, k := range p.Kernels {
			gotLaunches += float64(k.Invocations)
		}
	}
	if math.Abs(root.Time.Float()-wantTime) > 1e-9*wantTime {
		t.Errorf("root time = %g s, want %g s", root.Time.Float(), wantTime)
	}
	if float64(root.Launches) != gotLaunches {
		t.Errorf("root launches = %d, want %g", root.Launches, gotLaunches)
	}
}

// TestAttributeFullCatalogIdentity — the acceptance criterion at study
// scope: across every registered workload, the shares sum to 1 within
// 1e-9 at every node of the tree.
func TestAttributeFullCatalogIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("characterizes the full catalog")
	}
	cat, err := DefaultCatalog()
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStudyWith(gpu.RTX3080(), StudyOptions{}, cat.All()...)
	if err != nil {
		t.Fatal(err)
	}
	if v := telemetry.CheckAttribution(Attribute(st)); len(v) != 0 {
		t.Fatalf("attribution identity violated over the catalog: %v", v)
	}
}

// TestAttributeCachedEqualsLive — a cache-served study must attribute
// identically to the live-simulated one: the tree derives only from
// fields that round-trip through the profile cache bit for bit.
func TestAttributeCachedEqualsLive(t *testing.T) {
	cfg := gpu.RTX3080()
	ws := cheapSet(4)
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewStudyWith(cfg, StudyOptions{Workers: 1, Cache: cache}, ws...)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NewStudyWith(cfg, StudyOptions{Workers: 1, Cache: cache}, ws...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(Attribute(cold), Attribute(warm)) {
		t.Error("cache-served attribution tree differs from the live one")
	}
}

// TestAttributeSessionLaunchDepth — the deep builder descends to launch
// leaves: one leaf per launch, phase rollups matching their children, and
// the identity holding at every level.
func TestAttributeSessionLaunchDepth(t *testing.T) {
	cfg := gpu.RTX3080()
	w := tinyWorkload{abbr: "DW", launches: 5}
	dev, err := gpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := profiler.NewSession(dev)
	if err := w.Run(sess); err != nil {
		t.Fatal(err)
	}
	root := AttributeSession(w.Abbr(), sess)
	if v := telemetry.CheckAttribution(root); len(v) != 0 {
		t.Fatalf("attribution identity violated: %v", v)
	}
	if root.Launches != sess.LaunchCount() {
		t.Errorf("root launches = %d, want %d", root.Launches, sess.LaunchCount())
	}
	var leaves int
	for _, phase := range root.Children {
		if phase.Level != telemetry.LevelPhase {
			t.Errorf("child level = %s, want phase", phase.Level)
		}
		for _, leaf := range phase.Children {
			if leaf.Level != telemetry.LevelLaunch || leaf.Launches != 1 {
				t.Errorf("leaf %q: level %s, %d launches", leaf.Name, leaf.Level, leaf.Launches)
			}
			leaves++
		}
	}
	if leaves != sess.LaunchCount() {
		t.Errorf("tree has %d launch leaves, want %d", leaves, sess.LaunchCount())
	}
	// Phases must come out in dominance order, mirroring Session.Kernels.
	for i := 1; i < len(root.Children); i++ {
		a, b := root.Children[i-1], root.Children[i]
		if a.Time < b.Time {
			t.Errorf("phases out of dominance order: %q (%g s) before %q (%g s)",
				a.Name, a.Time.Float(), b.Name, b.Time.Float())
		}
	}
}
