package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/units"
)

// TestAttributeStallsIdentity — the tentpole invariant: for any input, the
// four shares sum to exactly 1 up to floating-point association error.
func TestAttributeStallsIdentity(t *testing.T) {
	cases := []struct {
		name                   string
		time, overhead         units.Seconds
		mem, pipe, exec, syncS units.Fraction
	}{
		{"balanced", 1e-3, 1e-5, 0.3, 0.1, 0.2, 0.1},
		{"no-stalls", 1e-3, 1e-5, 0, 0, 0, 0},
		{"all-memory", 1e-3, 0, 1, 0, 0, 0},
		{"stalls-over-one", 1e-3, 1e-5, 0.6, 0.4, 0.4, 0.3},
		{"overhead-dominated", 3e-6, 2.5e-6, 0.2, 0.1, 0.1, 0.1},
		{"pure-overhead", 2.5e-6, 2.5e-6, 0, 0, 0, 0},
		{"nan-stall", 1e-3, 1e-5, units.Fraction(math.NaN()), 0.1, 0.1, 0.1},
		{"negative-stall", 1e-3, 1e-5, -0.5, 0.1, 0.1, 0.1},
		{"zero-time", 0, 0, 0.2, 0.1, 0.1, 0.1},
	}
	for _, tc := range cases {
		s := AttributeStalls(tc.time, tc.overhead, tc.mem, tc.pipe, tc.exec, tc.syncS)
		if sum := s.Sum(); math.Abs(sum-1) > AttributionTol {
			t.Errorf("%s: shares sum to %.15g, want 1", tc.name, sum)
		}
		for _, b := range Bottlenecks() {
			if v := s[b].Float(); v < 0 || v > 1 || math.IsNaN(v) {
				t.Errorf("%s: share %s = %g is outside [0,1]", tc.name, b, v)
			}
		}
	}
}

// TestAttributeStallsSemantics spot-checks that the categories mean what
// they claim: overhead is carved out first, memory stalls feed DRAM,
// exec+sync feed latency, and a stall-free kernel is pure compute plus
// overhead.
func TestAttributeStallsSemantics(t *testing.T) {
	// 10% overhead, all remaining stall weight on memory.
	s := AttributeStalls(1e-3, 1e-4, 1, 0, 0, 0)
	if oh := s[BottleneckOverhead].Float(); math.Abs(oh-0.1) > 1e-12 {
		t.Errorf("overhead share = %g, want 0.1", oh)
	}
	if dram := s[BottleneckDRAM].Float(); math.Abs(dram-0.9) > 1e-12 {
		t.Errorf("dram share = %g, want 0.9", dram)
	}
	// No stalls at all: everything but overhead is compute.
	s = AttributeStalls(1e-3, 1e-4, 0, 0, 0, 0)
	if comp := s[BottleneckCompute].Float(); math.Abs(comp-0.9) > 1e-12 {
		t.Errorf("compute share = %g, want 0.9", comp)
	}
	// Latency pools exec and sync stalls.
	s = AttributeStalls(1e-3, 0, 0, 0, 0.25, 0.25)
	if lat := s[BottleneckLatency].Float(); math.Abs(lat-0.5) > 1e-12 {
		t.Errorf("latency share = %g, want 0.5", lat)
	}
}

// TestAggregateNodePreservesIdentityAndSeconds — rolling children into a
// parent must keep Σ shares = 1 and conserve per-category seconds.
func TestAggregateNodePreservesIdentityAndSeconds(t *testing.T) {
	children := []*AttributionNode{
		{Level: LevelLaunch, Name: "a#0", Time: 2e-3, Launches: 1,
			Shares: AttributeStalls(2e-3, 1e-5, 0.6, 0.1, 0.1, 0.05)},
		{Level: LevelLaunch, Name: "a#1", Time: 5e-4, Launches: 1,
			Shares: AttributeStalls(5e-4, 1e-5, 0.1, 0.5, 0.2, 0.1)},
		{Level: LevelLaunch, Name: "a#2", Time: 1e-6, Launches: 1,
			Shares: AttributeStalls(1e-6, 1e-6, 0, 0, 0, 0)},
	}
	n := AggregateNode(LevelPhase, "a", children)
	if n.Launches != 3 {
		t.Errorf("launches = %d, want 3", n.Launches)
	}
	wantTime := units.Seconds(2e-3 + 5e-4 + 1e-6)
	if math.Abs(n.Time.Float()-wantTime.Float()) > 1e-15 {
		t.Errorf("time = %g, want %g", n.Time.Float(), wantTime.Float())
	}
	if sum := n.Shares.Sum(); math.Abs(sum-1) > AttributionTol {
		t.Errorf("aggregated shares sum to %.15g, want 1", sum)
	}
	for _, b := range Bottlenecks() {
		var childSeconds float64
		for _, c := range children {
			childSeconds += c.Time.Float() * c.Shares[b].Float()
		}
		parentSeconds := n.Time.Float() * n.Shares[b].Float()
		if math.Abs(parentSeconds-childSeconds) > 1e-12 {
			t.Errorf("%s: parent %g s != sum of children %g s", b, parentSeconds, childSeconds)
		}
	}
	if violations := CheckAttribution(n); len(violations) != 0 {
		t.Errorf("CheckAttribution: %v", violations)
	}
}

// TestCheckAttributionFindsViolations — a corrupted node is reported with
// its path; clean trees report nothing.
func TestCheckAttributionFindsViolations(t *testing.T) {
	leaf := &AttributionNode{Level: LevelLaunch, Name: "k#0", Time: 1e-3, Launches: 1,
		Shares: AttributeStalls(1e-3, 1e-5, 0.3, 0.1, 0.1, 0.1)}
	root := AggregateNode(LevelStudy, "dev", []*AttributionNode{
		AggregateNode(LevelWorkload, "w", []*AttributionNode{leaf}),
	})
	if v := CheckAttribution(root); len(v) != 0 {
		t.Fatalf("clean tree reported violations: %v", v)
	}
	leaf.Shares[BottleneckDRAM] += 0.5
	v := CheckAttribution(root)
	if len(v) != 1 {
		t.Fatalf("got %d violations, want 1 (the corrupted leaf): %v", len(v), v)
	}
	if v[0].Path != "dev/w/k#0" {
		t.Errorf("violation path = %q, want dev/w/k#0", v[0].Path)
	}
	if !strings.Contains(v[0].String(), "want 1") {
		t.Errorf("violation string = %q", v[0].String())
	}
	if v := CheckAttribution(nil); v != nil {
		t.Errorf("nil tree reported violations: %v", v)
	}
}

// TestWriteAttributionText — alignment, depth limiting, and category
// labels in the rendering.
func TestWriteAttributionText(t *testing.T) {
	leafA := &AttributionNode{Level: LevelLaunch, Name: "kern#0", Time: 1e-3, Launches: 1,
		Shares: AttributeStalls(1e-3, 1e-5, 0.5, 0.1, 0.1, 0.1)}
	root := AggregateNode(LevelStudy, "dev", []*AttributionNode{
		AggregateNode(LevelWorkload, "wl", []*AttributionNode{leafA}),
	})
	var full bytes.Buffer
	if err := WriteAttributionText(&full, root, 0); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(full.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("full rendering has %d lines, want 3:\n%s", len(lines), full.String())
	}
	for _, want := range []string{"dev", "  wl", "    kern#0", "dram", "overhead", "launches"} {
		if !strings.Contains(full.String(), want) {
			t.Errorf("rendering missing %q:\n%s", want, full.String())
		}
	}
	var shallow bytes.Buffer
	if err := WriteAttributionText(&shallow, root, 2); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(shallow.String(), "\n"); got != 2 {
		t.Errorf("depth-2 rendering has %d lines, want 2:\n%s", got, shallow.String())
	}
	if err := WriteAttributionText(&bytes.Buffer{}, nil, 0); err != nil {
		t.Errorf("nil tree: %v", err)
	}
}

// TestWriteAttributionJSON — the JSON shape is stable, shares are guarded,
// and a nil tree marshals as null.
func TestWriteAttributionJSON(t *testing.T) {
	leaf := &AttributionNode{Level: LevelLaunch, Name: "k#0", Time: 1e-3, Launches: 1,
		Shares: AttributeStalls(1e-3, 1e-5, 0.5, 0.1, 0.1, 0.1)}
	root := AggregateNode(LevelStudy, "dev", []*AttributionNode{
		AggregateNode(LevelWorkload, "wl", []*AttributionNode{leaf}),
	})
	var buf bytes.Buffer
	if err := WriteAttributionJSON(&buf, root); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Level    string             `json:"level"`
		Name     string             `json:"name"`
		Shares   map[string]float64 `json:"shares"`
		Children []json.RawMessage  `json:"children"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if got.Level != LevelStudy || got.Name != "dev" || len(got.Children) != 1 {
		t.Errorf("root = %+v", got)
	}
	var sum float64
	for _, b := range Bottlenecks() {
		v, ok := got.Shares[b.String()]
		if !ok {
			t.Fatalf("shares missing category %q: %v", b, got.Shares)
		}
		sum += v
	}
	if math.Abs(sum-1) > AttributionTol {
		t.Errorf("serialized shares sum to %g, want 1", sum)
	}
	buf.Reset()
	if err := WriteAttributionJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "null" {
		t.Errorf("nil tree serialized as %q, want null", buf.String())
	}
}

// TestBottleneckString covers the enum's stable names and the
// out-of-range fallback.
func TestBottleneckString(t *testing.T) {
	want := map[Bottleneck]string{
		BottleneckDRAM: "dram", BottleneckCompute: "compute",
		BottleneckLatency: "latency", BottleneckOverhead: "overhead",
	}
	for b, name := range want {
		if b.String() != name {
			t.Errorf("%d.String() = %q, want %q", b, b.String(), name)
		}
	}
	if s := Bottleneck(99).String(); !strings.Contains(s, "99") {
		t.Errorf("out-of-range String() = %q", s)
	}
}
