package report

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/roofline"
	"repro/internal/stats"
)

// RooflineChart renders a log-log instruction-roofline scatter chart. Points
// are plotted with single-character glyphs; the memory roof (diagonal) and
// compute roof (horizontal) are drawn as '/' and '-'; the elbow column is
// marked. A legend maps glyphs back to labels.
type RooflineChart struct {
	Title  string
	Model  roofline.Model
	Points []roofline.Point
}

// Render writes the chart to w.
func (c *RooflineChart) Render(w io.Writer) error {
	const width, height = 72, 20 // plot area in characters

	// Chart range: II from 1e-2..1e4, GIPS from 1e-2..1e3 (log10), adjusted
	// to cover the data.
	xmin, xmax := -2.0, 4.0
	ymin, ymax := -2.0, 3.0
	for _, p := range c.Points {
		if p.II > 0 && !math.IsInf(p.II, 1) {
			x := math.Log10(p.II)
			xmin, xmax = math.Min(xmin, math.Floor(x)), math.Max(xmax, math.Ceil(x))
		}
		if p.GIPS > 0 {
			y := math.Log10(p.GIPS)
			ymin, ymax = math.Min(ymin, math.Floor(y)), math.Max(ymax, math.Ceil(y))
		}
	}

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	toCol := func(x float64) int {
		return int((x - xmin) / (xmax - xmin) * float64(width-1))
	}
	toRow := func(y float64) int {
		// Row 0 is the top.
		return height - 1 - int((y-ymin)/(ymax-ymin)*float64(height-1))
	}
	inGrid := func(r, col int) bool { return r >= 0 && r < height && col >= 0 && col < width }

	// Draw roofs.
	for col := 0; col < width; col++ {
		x := xmin + (xmax-xmin)*float64(col)/float64(width-1)
		roof := c.Model.Roof(math.Pow(10, x))
		if roof <= 0 {
			continue
		}
		r := toRow(math.Log10(roof))
		if inGrid(r, col) {
			ch := byte('-')
			if roof < c.Model.PeakGIPS {
				ch = '/'
			}
			if grid[r][col] == ' ' {
				grid[r][col] = ch
			}
		}
	}
	// Mark the elbow.
	elbowCol := toCol(math.Log10(c.Model.ElbowII()))
	for r := 0; r < height; r++ {
		if inGrid(r, elbowCol) && grid[r][elbowCol] == ' ' {
			grid[r][elbowCol] = '|'
		}
	}

	// Plot points with per-label glyphs.
	glyphAlphabet := "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
	glyphOf := map[string]byte{}
	var legend []string
	next := 0
	for _, p := range c.Points {
		g, ok := glyphOf[p.Label]
		if !ok {
			g = glyphAlphabet[next%len(glyphAlphabet)]
			next++
			glyphOf[p.Label] = g
			legend = append(legend, fmt.Sprintf("%c=%s", g, p.Label))
		}
		if p.II <= 0 || p.GIPS <= 0 {
			continue
		}
		x := math.Log10(p.II)
		if math.IsInf(p.II, 1) {
			x = xmax
		}
		r, col := toRow(math.Log10(p.GIPS)), toCol(x)
		if inGrid(r, col) {
			grid[r][col] = g
		}
	}

	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	fmt.Fprintf(&b, "GIPS (log10 %g..%g) vs warp insts per DRAM txn (log10 %g..%g); elbow II=%.2f\n",
		ymin, ymax, xmin, xmax, c.Model.ElbowII())
	for _, row := range grid {
		b.Write(row)
		b.WriteByte('\n')
	}
	// Legend, wrapped.
	const perLine = 6
	for i := 0; i < len(legend); i += perLine {
		end := i + perLine
		if end > len(legend) {
			end = len(legend)
		}
		b.WriteString("  " + strings.Join(legend[i:end], "  ") + "\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderHeatmap renders the Figure 8 style correlation heatmap: rows x cols
// of |PCC| values bucketed into the paper's color code
// (' ' none, '.' weak, '#' strong), plus the numeric values.
func RenderHeatmap(w io.Writer, title string, rowNames, colNames []string, values [][]float64) error {
	var b strings.Builder
	if title != "" {
		b.WriteString(title + "\n")
	}
	rowW := 0
	for _, r := range rowNames {
		if len(r) > rowW {
			rowW = len(r)
		}
	}
	// Column header (abbreviated to 6 chars).
	fmt.Fprintf(&b, "%-*s", rowW, "")
	for _, cn := range colNames {
		short := cn
		if len(short) > 7 {
			short = short[:7]
		}
		fmt.Fprintf(&b, " %7s", short)
	}
	b.WriteString("\n")
	for i, rn := range rowNames {
		fmt.Fprintf(&b, "%-*s", rowW, rn)
		for j := range colNames {
			v := math.Abs(values[i][j])
			var mark byte
			switch stats.Strength(v) {
			case stats.NoCorrelation:
				mark = ' '
			case stats.WeakCorrelation:
				mark = '.'
			default:
				mark = '#'
			}
			fmt.Fprintf(&b, " %c%5.2f%c", mark, v, mark)
		}
		b.WriteString("\n")
	}
	b.WriteString("legend: #x.xx# strong (|r|>=0.5), .x.xx. weak (0.2<=|r|<0.5), blank none\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderDendrogram renders the merge tree with heights, annotating each leaf
// with its cluster id under a k-cluster cut (Figure 9's six primary
// clusters).
func RenderDendrogram(w io.Writer, d *stats.Dendrogram, k int) error {
	assign, err := d.Cut(k)
	if err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "dendrogram (%d leaves, cut into %d clusters)\n", d.N, k)
	var walk func(node int, prefix string, last bool)
	walk = func(node int, prefix string, last bool) {
		connector := "+-- "
		childPrefix := prefix + "|   "
		if last {
			childPrefix = prefix + "    "
		}
		if node < d.N {
			fmt.Fprintf(&b, "%s%s%s  [cluster %d]\n", prefix, connector, d.Labels[node], assign[node]+1)
			return
		}
		m := d.Merges[node-d.N]
		fmt.Fprintf(&b, "%s%s(h=%.3f)\n", prefix, connector, m.Height)
		walk(m.A, childPrefix, false)
		walk(m.B, childPrefix, true)
	}
	if len(d.Merges) == 0 {
		for i, l := range d.Labels {
			fmt.Fprintf(&b, "+-- %s  [cluster %d]\n", l, assign[i]+1)
		}
	} else {
		walk(d.N+len(d.Merges)-1, "", true)
	}
	_, err = io.WriteString(w, b.String())
	return err
}

// RenderClusterSummary prints, per cluster, the member labels — the compact
// companion to the dendrogram used for Observations #10-#12.
func RenderClusterSummary(w io.Writer, d *stats.Dendrogram, k int) error {
	assign, err := d.Cut(k)
	if err != nil {
		return err
	}
	byCluster := make(map[int][]string)
	for leaf, c := range assign {
		byCluster[c] = append(byCluster[c], d.Labels[leaf])
	}
	ids := make([]int, 0, len(byCluster))
	for c := range byCluster {
		ids = append(ids, c)
	}
	sort.Ints(ids)
	var b strings.Builder
	for _, c := range ids {
		members := byCluster[c]
		sort.Strings(members)
		fmt.Fprintf(&b, "cluster %d (%d): %s\n", c+1, len(members), strings.Join(members, ", "))
	}
	_, err = io.WriteString(w, b.String())
	return err
}
