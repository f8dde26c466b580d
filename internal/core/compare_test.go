package core

import (
	"testing"

	"repro/internal/gpu"
)

func TestCompareDevices(t *testing.T) {
	// Characterize two fast workloads on both devices.
	cat, err := DefaultCatalog()
	if err != nil {
		t.Fatal(err)
	}
	// Use workloads far from the elbow: side placement of boundary cases
	// legitimately depends on cache capacities, which differ per device.
	w1, _ := cat.Lookup("pb-cutcp")
	w2, _ := cat.Lookup("pb-spmv")
	a, err := NewStudy(gpu.RTX3080(), w1, w2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStudy(gpu.GTX1080(), w1, w2)
	if err != nil {
		t.Fatal(err)
	}
	cmps, err := CompareDevices(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmps) != 2 {
		t.Fatalf("%d comparisons", len(cmps))
	}
	for _, c := range cmps {
		// The 3080 has higher roofs: aggregate throughput must not regress.
		if c.Speedup < 1 {
			t.Errorf("%s: RTX 3080 slower than GTX 1080 (%.2fx)", c.Abbr, c.Speedup)
		}
		// Compute- vs memory-intensity is an algorithmic property: it must
		// be stable across devices.
		if !c.SideStable {
			t.Errorf("%s: roofline side flipped across devices", c.Abbr)
		}
	}
	// Missing workload on one side.
	short, err := NewStudy(gpu.GTX1080(), w1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompareDevices(a, short); err == nil {
		t.Error("mismatched studies should fail")
	}
}
