// Package report renders the paper's tables and figures as plain text so
// every experiment's output can be regenerated and inspected without
// a plotting stack: aligned tables (Tables I-IV), log-log roofline scatter
// charts (Figs. 4-7), stacked time-distribution bars (Fig. 2), cumulative
// distributions (Fig. 3), correlation heatmaps (Fig. 8), and dendrograms
// (Fig. 9).
package report

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/units"
)

// Table is a simple aligned text table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.Header) {
		cells = append(cells, "")
	}
	t.Rows = append(t.Rows, cells)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title + "\n")
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r[:len(t.Header)])
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// StackedBar renders segments (fractions summing to <= 1) using a glyph per
// segment, cycling through glyphs if needed.
func StackedBar(fracs []units.Fraction, width int) string {
	glyphs := []byte("#@%*+=-:~o")
	var b strings.Builder
	used := 0
	for i, f := range fracs {
		n := int(f.Clamp01()*float64(width) + 0.5)
		if used+n > width {
			n = width - used
		}
		b.WriteString(strings.Repeat(string(glyphs[i%len(glyphs)]), n))
		used += n
	}
	if used < width {
		b.WriteString(strings.Repeat(".", width-used))
	}
	return b.String()
}
