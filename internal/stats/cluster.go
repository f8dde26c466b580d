package stats

import (
	"fmt"
	"math"
)

// Merge records one agglomeration step. Node ids < N refer to leaves;
// node id N+i refers to the cluster created by Merges[i].
type Merge struct {
	A, B   int
	Height float64
	Size   int // leaves under the new cluster
}

// Dendrogram is the full merge tree of an agglomerative clustering.
type Dendrogram struct {
	N      int
	Labels []string
	Merges []Merge
}

// Agglomerative performs hierarchical clustering of the points (row
// vectors) under Ward linkage — the paper's choice, standard with FAMD
// coordinates: each merge minimizes the within-cluster variance increase,
// computed with the Lance-Williams recurrence.
func Agglomerative(points [][]float64, labels []string) (*Dendrogram, error) {
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

// Cut assigns each leaf to one of k clusters by undoing the last k-1 merges.
// Cluster ids are 0..k-1 in order of first leaf appearance.
func (dd *Dendrogram) Cut(k int) ([]int, error) {
	if k < 1 || k > dd.N {
		return nil, fmt.Errorf("stats: cut into %d clusters of %d leaves", k, dd.N)
	}
	// Union-find over the first n-k merges.
	parent := make([]int, dd.N+len(dd.Merges))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < dd.N-k; i++ {
		m := dd.Merges[i]
		node := dd.N + i
		parent[find(m.A)] = node
		parent[find(m.B)] = node
	}
	assign := make([]int, dd.N)
	next := 0
	rootID := make(map[int]int)
	for leaf := 0; leaf < dd.N; leaf++ {
		r := find(leaf)
		id, ok := rootID[r]
		if !ok {
			id = next
			rootID[r] = id
			next++
		}
		assign[leaf] = id
	}
	return assign, nil
}

// SilhouetteScore computes the mean silhouette coefficient of an assignment
// over the given points. No command calls it: it stays for
// BenchmarkAblationFAMD, the DESIGN.md §6b ablation that compares clustering
// quality in FAMD space against raw standardized metrics.
func SilhouetteScore(points [][]float64, assign []int) (float64, error) {
	n := len(points)
	if n != len(assign) {
		return 0, fmt.Errorf("%w: %d points, %d assignments", ErrDimension, n, len(assign))
	}
	if n < 2 {
		return 0, fmt.Errorf("stats: silhouette needs >= 2 points")
	}
	clusters := make(map[int][]int)
	for i, c := range assign {
		clusters[c] = append(clusters[c], i)
	}
	if len(clusters) < 2 {
		return 0, fmt.Errorf("stats: silhouette needs >= 2 clusters")
	}
	var total float64
	var counted int
	for i := 0; i < n; i++ {
		own := clusters[assign[i]]
		if len(own) == 1 {
			continue // silhouette undefined; conventionally 0, skip from mean
		}
		var a float64
		for _, j := range own {
			if j != i {
				a += EuclideanDist(points[i], points[j])
			}
		}
		a /= float64(len(own) - 1)
		b := math.Inf(1)
		for c, members := range clusters {
			if c == assign[i] {
				continue
			}
			var s float64
			for _, j := range members {
				s += EuclideanDist(points[i], points[j])
			}
			s /= float64(len(members))
			if s < b {
				b = s
			}
		}
		den := math.Max(a, b)
		if den > 0 {
			total += (b - a) / den
		}
		counted++
	}
	if counted == 0 {
		return 0, nil
	}
	return total / float64(counted), nil
}
