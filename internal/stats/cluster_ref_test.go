package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refAgglomerative is the previous Agglomerative, kept verbatim as the
// oracle: it finds each merge by rescanning every active pair, which is
// O(n³) over a clustering. It panics when no pair compares below +Inf.
func refAgglomerative(points [][]float64, labels []string) (*Dendrogram, error) {
	n := len(points)
	if n == 0 {
		return nil, fmt.Errorf("stats: clustering of zero points")
	}
	if labels != nil && len(labels) != n {
		return nil, fmt.Errorf("%w: %d labels for %d points", ErrDimension, len(labels), n)
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("%w: point %d has dim %d, want %d", ErrDimension, i, len(p), dim)
		}
	}
	if labels == nil {
		labels = make([]string, n)
		for i := range labels {
			labels[i] = fmt.Sprintf("p%d", i)
		}
	}

	// Distance matrix. Ward works on squared Euclidean distances inside the
	// recurrence; merge heights take the square root so they are reported
	// in distance units.
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dist := EuclideanDist(points[i], points[j])
			d[i][j], d[j][i] = dist*dist, dist*dist
		}
	}

	type clus struct {
		id   int // node id (leaf < n, else n+mergeIdx)
		size int
	}
	active := make([]clus, n)
	for i := range active {
		active[i] = clus{id: i, size: 1}
	}
	dend := &Dendrogram{N: n, Labels: append([]string(nil), labels...)}

	for step := 0; step < n-1; step++ {
		// Find the closest active pair.
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < len(active); i++ {
			for j := i + 1; j < len(active); j++ {
				if d[i][j] < best {
					best, bi, bj = d[i][j], i, j
				}
			}
		}
		ci, cj := active[bi], active[bj]
		newSize := ci.size + cj.size
		dend.Merges = append(dend.Merges, Merge{A: ci.id, B: cj.id, Height: math.Sqrt(best), Size: newSize})

		// Lance-Williams update of distances from the merged cluster to all
		// others, written into row/col bi; then remove bj.
		for k := 0; k < len(active); k++ {
			if k == bi || k == bj {
				continue
			}
			dik, djk, dij := d[bi][k], d[bj][k], d[bi][bj]
			si, sj, sk := float64(ci.size), float64(cj.size), float64(active[k].size)
			tot := si + sj + sk
			nd := ((si+sk)*dik + (sj+sk)*djk - sk*dij) / tot
			d[bi][k], d[k][bi] = nd, nd
		}
		active[bi] = clus{id: n + step, size: newSize}
		// Remove bj by swapping with the last entry.
		last := len(active) - 1
		active[bj] = active[last]
		active = active[:last]
		for k := 0; k < len(active); k++ {
			d[bj][k], d[k][bj] = d[last][k], d[k][last]
		}
	}
	return dend, nil
}

// clusterCase is one input family of the differential test: gen draws n
// points of dimension dim.
type clusterCase struct {
	name string
	gen  func(r *rand.Rand, n, dim int) [][]float64
}

var clusterCases = []clusterCase{
	{"normal", func(r *rand.Rand, n, dim int) [][]float64 {
		return drawPoints(n, dim, func() float64 { return r.NormFloat64() })
	}},
	// Small integer and half-integer grids: many exactly equal distances,
	// and the Lance-Williams values built from them tie too.
	{"int-grid", func(r *rand.Rand, n, dim int) [][]float64 {
		return drawPoints(n, dim, func() float64 { return float64(r.Intn(4)) })
	}},
	{"half-grid", func(r *rand.Rand, n, dim int) [][]float64 {
		return drawPoints(n, dim, func() float64 { return float64(r.Intn(7)-3) / 2 })
	}},
	// A few distinct points, each repeated: zero distances and exact ties
	// between whole clusters.
	{"duplicates", func(r *rand.Rand, n, dim int) [][]float64 {
		distinct := drawPoints(1+r.Intn(4), dim, func() float64 { return float64(r.Intn(3)) })
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = append([]float64(nil), distinct[r.Intn(len(distinct))]...)
		}
		return pts
	}},
	// Coordinates near the float64 range: the Lance-Williams sums of large
	// clusters overflow to +Inf, which no merge may pick; once only +Inf
	// distances remain, the clustering fails.
	{"huge", func(r *rand.Rand, n, dim int) [][]float64 {
		scale := math.Pow(10, float64(148+r.Intn(6)))
		return drawPoints(n, dim, func() float64 { return float64(r.Intn(5)) * scale })
	}},
}

func drawPoints(n, dim int, draw func() float64) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
		for c := range pts[i] {
			pts[i][c] = draw()
		}
	}
	return pts
}

// refOutcome runs refAgglomerative and turns its panic on an input with no
// finite pair left into an error.
func refOutcome(pts [][]float64) (d *Dendrogram, err error) {
	defer func() {
		if p := recover(); p != nil {
			d, err = nil, fmt.Errorf("reference panicked: %v", p)
		}
	}()
	return refAgglomerative(pts, nil)
}

// sameClustering compares two dendrograms merge for merge, heights to the
// bit, and returns the first difference.
func sameClustering(got, want *Dendrogram) error {
	if got.N != want.N || len(got.Merges) != len(want.Merges) {
		return fmt.Errorf("N %d with %d merges, want N %d with %d merges",
			got.N, len(got.Merges), want.N, len(want.Merges))
	}
	for i, m := range got.Merges {
		w := want.Merges[i]
		if m.A != w.A || m.B != w.B || m.Size != w.Size ||
			math.Float64bits(m.Height) != math.Float64bits(w.Height) {
			return fmt.Errorf("merge %d = %+v, want %+v", i, m, w)
		}
	}
	for i, l := range got.Labels {
		if l != want.Labels[i] {
			return fmt.Errorf("label %d = %q, want %q", i, l, want.Labels[i])
		}
	}
	return nil
}

// checkAgainstReference clusters pts both ways. Where the reference
// finishes, Agglomerative must reproduce it merge for merge; where the
// reference panics, Agglomerative must return an error.
func checkAgainstReference(t *testing.T, what string, pts [][]float64) {
	t.Helper()
	want, refErr := refOutcome(pts)
	got, err := Agglomerative(pts, nil)
	switch {
	case refErr != nil && err == nil:
		t.Fatalf("%s: Agglomerative succeeded where the reference failed: %v", what, refErr)
	case refErr == nil && err != nil:
		t.Fatalf("%s: Agglomerative: %v", what, err)
	case refErr == nil:
		if diff := sameClustering(got, want); diff != nil {
			t.Fatalf("%s: %v", what, diff)
		}
	}
}

// TestAgglomerativeMatchesReference holds Agglomerative to the O(n³) scan
// it replaced over thousands of random inputs of every family, n from 1 to
// 60, and one input of Figure 9's 123 dominant kernels per family.
func TestAgglomerativeMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	for _, c := range clusterCases {
		for i := 0; i < 800; i++ {
			n, dim := 1+r.Intn(60), 1+r.Intn(6)
			checkAgainstReference(t, fmt.Sprintf("%s case %d (n=%d, dim=%d)", c.name, i, n, dim), c.gen(r, n, dim))
		}
		checkAgainstReference(t, c.name+" n=123", c.gen(r, 123, 6))
	}
}
