package report

import (
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/roofline"
	"repro/internal/stats"
	"repro/internal/units"
)

func TestTableRender(t *testing.T) {
	tbl := NewTable("Title", "name", "value")
	tbl.AddRow("alpha", "1")
	tbl.AddRow("b") // short row padded
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Title", "name", "alpha", "-----"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title + header + sep + 2 rows
		t.Errorf("line count = %d", len(lines))
	}
}

func TestStackedBar(t *testing.T) {
	got := StackedBar([]units.Fraction{0.5, 0.3}, 10)
	if len(got) != 10 {
		t.Errorf("length = %d", len(got))
	}
	if !strings.HasPrefix(got, "#####") {
		t.Errorf("first segment: %q", got)
	}
	if !strings.Contains(got, "@@@") {
		t.Errorf("second segment: %q", got)
	}
	if !strings.HasSuffix(got, "..") {
		t.Errorf("remainder: %q", got)
	}
	// Overfull fractions must not exceed width.
	if got := StackedBar([]units.Fraction{0.9, 0.9}, 10); len(got) != 10 {
		t.Errorf("overfull length = %d", len(got))
	}
}

func TestRooflineChartRender(t *testing.T) {
	m := roofline.ForDevice(gpu.RTX3080())
	c := RooflineChart{
		Title: "test roofline",
		Model: m,
		Points: []roofline.Point{
			{Label: "memk", II: 2, GIPS: 30},
			{Label: "cmpk", II: 200, GIPS: 400},
		},
	}
	var b strings.Builder
	if err := c.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"test roofline", "elbow II=21.7", "A=memk", "B=cmpk", "/", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q", want)
		}
	}
}

func TestRenderHeatmap(t *testing.T) {
	var b strings.Builder
	err := RenderHeatmap(&b, "fig8", []string{"GIPS"}, []string{"L1", "L2"},
		[][]float64{{0.7, -0.3}})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "# 0.70#") {
		t.Errorf("strong cell missing: %s", out)
	}
	if !strings.Contains(out, ". 0.30.") {
		t.Errorf("weak cell missing: %s", out)
	}
}

func TestRenderDendrogram(t *testing.T) {
	d, err := stats.Agglomerative([][]float64{{0}, {0.5}, {10}}, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := RenderDendrogram(&b, d, 2); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"a  [cluster", "c  [cluster", "h="} {
		if !strings.Contains(out, want) {
			t.Errorf("dendrogram missing %q:\n%s", want, out)
		}
	}
	var s strings.Builder
	if err := RenderClusterSummary(&s, d, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.String(), "cluster 1 (2): a, b") {
		t.Errorf("summary: %s", s.String())
	}
	if err := RenderDendrogram(&b, d, 99); err == nil {
		t.Error("bad cut should error")
	}
}
