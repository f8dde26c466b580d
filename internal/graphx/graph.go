// Package graphx implements the graph-analytics substrate behind the Cactus
// GST/GRU workloads: graph generators standing in for the paper's
// SOC-Twitter10 social network and Road-USA road network, and a
// Gunrock-style frontier-based BFS whose per-iteration kernel launches are
// derived from the actual frontier the traversal produces. A bottom-up-style
// single-kernel BFS (the Rodinia/Parboil formulation) is also provided for
// the baseline suites and the BFS ablation.
package graphx

import (
	"fmt"
	"math/rand"
)

// Graph is a directed graph in CSR form.
type Graph struct {
	N       int
	Offsets []int32
	Edges   []int32
}

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// Degree returns vertex v's out-degree.
func (g *Graph) Degree(v int) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// Neighbors returns vertex v's adjacency slice.
func (g *Graph) Neighbors(v int) []int32 {
	return g.Edges[g.Offsets[v]:g.Offsets[v+1]]
}

// fromEdges builds a CSR graph from an undirected edge list, given as
// consecutive (u, v) pairs and stored in both directions, with each
// vertex's neighbors sorted and deduplicated and self-loops dropped. The
// graph's edges reuse pairs' backing array.
//
// Each pair is oriented as (lo, hi), lo < hi, and counting passes sort
// them. The first groups the los by hi. The second walks those groups in
// ascending hi and groups the his by lo, so each vertex's higher
// neighbors come out ascending. The third walks the higher neighbors in
// ascending lo and appends each lo to its hi's lower neighbors, ascending
// too. A vertex's lower neighbors precede its higher ones, so every list
// is sorted; a sorted multiset of int32s has exactly one order, so the
// result is the one a per-vertex sort gives. The pairs are dead once the
// first pass has read them, so the later passes work in their buffer,
// and besides it the build holds one int32 per pair, where sorting both
// arcs of every pair beside the pairs holds two.
func fromEdges(n int, pairs []int32) *Graph {
	// below[hi] counts the pairs (lo, hi), then holds where their los
	// start in los.
	below := make([]int32, n+1)
	for i := 0; i < len(pairs); i += 2 {
		if lo, hi := minmax(pairs[i], pairs[i+1]); lo != hi {
			below[hi]++
		}
	}
	prefixSum(below)
	m := below[n]
	los := make([]int32, m)
	for i := 0; i < len(pairs); i += 2 {
		if lo, hi := minmax(pairs[i], pairs[i+1]); lo != hi {
			los[below[hi]] = lo
			below[hi]++
		}
	}

	// below[hi] now ends hi's los. above[lo] counts lo's higher
	// neighbors, then fills them in, in the upper half of the buffer the
	// graph's 2m edges will fill.
	above := make([]int32, n+1)
	for _, lo := range los {
		above[lo]++
	}
	prefixSum(above)
	edges := pairs[:2*m]
	his := edges[m:]
	j := int32(0)
	for hi := 0; hi < n; hi++ {
		for ; j < below[hi]; j++ {
			lo := los[j]
			his[above[lo]] = int32(hi)
			above[lo]++
		}
	}

	// above[v] now ends v's higher neighbors. Move them to their place in
	// v's list, behind room for its lower neighbors, and make below[v] the
	// list's start. Each vertex's higher neighbors move down by the count
	// of lower neighbors of the vertices after it, so no move overwrites
	// higher neighbors not yet moved.
	var run, prevBelow, prevAbove int32
	for v := 0; v < n; v++ {
		down, up := below[v]-prevBelow, above[v]-prevAbove
		copy(edges[run+down:run+down+up], his[prevAbove:above[v]])
		prevBelow, prevAbove = below[v], above[v]
		below[v] = run
		run += down + up
	}
	prevAbove = 0
	for lo := 0; lo < n; lo++ {
		// Every vertex below lo has been walked, so lo's lower neighbors
		// are all in place and below[lo] points at its higher ones.
		up := above[lo] - prevAbove
		prevAbove = above[lo]
		for _, hi := range edges[below[lo] : below[lo]+up] {
			edges[below[hi]] = int32(lo)
			below[hi]++
		}
	}

	// Vertex v's list ends below[v] + (its higher neighbors). Compact the
	// duplicate-free runs toward the front; the write cursor never passes
	// a list's start.
	g := &Graph{N: n, Offsets: below}
	w, start := int32(0), int32(0)
	prevAbove = 0
	for v := 0; v < n; v++ {
		end := below[v] + above[v] - prevAbove
		prevAbove = above[v]
		g.Offsets[v] = w
		var prev int32 = -1
		for _, u := range edges[start:end] {
			if u != prev {
				edges[w] = u
				w++
				prev = u
			}
		}
		start = end
	}
	g.Offsets[n] = w
	g.Edges = edges[:w:w]
	return g
}

// minmax returns a and b in ascending order.
func minmax(a, b int32) (int32, int32) {
	if a > b {
		return b, a
	}
	return a, b
}

// prefixSum replaces c with its exclusive prefix sums.
func prefixSum(c []int32) {
	var run int32
	for i, x := range c {
		c[i] = run
		run += x
	}
}

// RMAT generates a scale-free RMAT graph with 2^scale vertices and about
// edgeFactor*2^scale undirected edges (stored in both directions) — the
// stand-in for the paper's SOC-Twitter10 social network (21 M vertices,
// 265 M edges; here reduced, see DESIGN.md scale substitutions). The
// standard Graph500 partition probabilities (0.57, 0.19, 0.19, 0.05) yield
// the heavy-tailed degree distribution that drives wide BFS frontiers.
func RMAT(scale, edgeFactor int, seed int64) (*Graph, error) {
	if scale < 2 || scale > 24 {
		return nil, fmt.Errorf("graphx: RMAT scale %d out of [2,24]", scale)
	}
	if edgeFactor < 1 {
		return nil, fmt.Errorf("graphx: RMAT edge factor %d", edgeFactor)
	}
	n := 1 << scale
	m := n * edgeFactor
	r := rand.New(rand.NewSource(seed))
	pairs := make([]int32, 0, 2*m)
	const a, b, c = 0.57, 0.19, 0.19
	for e := 0; e < m; e++ {
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			// Each draw picks a quadrant: upper-left below a, upper-right
			// below a+b, lower-left below a+b+c, lower-right above. So u's
			// bit is set from a+b up, and v's bit in [a, a+b) and from
			// a+b+c up.
			p := r.Float64()
			lower := b2i(p >= a+b)
			u |= lower << bit
			v |= (b2i(p >= a) ^ lower ^ b2i(p >= a+b+c)) << bit
		}
		if u == v {
			continue
		}
		pairs = append(pairs, int32(u), int32(v))
	}
	return fromEdges(n, pairs), nil
}

// b2i is 1 for true and 0 for false; the compiler emits it without a
// branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// RoadGrid generates a road-network-like graph: a w x h lattice with
// mostly 4-neighbor connectivity, a fraction of deleted edges (dead ends)
// and occasional long-range "highway" shortcuts — the stand-in for the
// paper's Road-USA input (23 M vertices, 28 M edges; average degree ~2.4,
// enormous diameter). The low degree and high diameter drive BFS into many
// iterations with tiny frontiers.
func RoadGrid(w, h int, seed int64) (*Graph, error) {
	if w < 2 || h < 2 {
		return nil, fmt.Errorf("graphx: road grid %dx%d too small", w, h)
	}
	n := w * h
	r := rand.New(rand.NewSource(seed))
	pairs := make([]int32, 0, 4*n)
	add := func(u, v int) {
		pairs = append(pairs, int32(u), int32(v))
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			u := y*w + x
			if x+1 < w && r.Float64() > 0.12 { // some missing streets
				add(u, u+1)
			}
			if y+1 < h && r.Float64() > 0.12 {
				add(u, u+w)
			}
		}
	}
	// Sparse highways: long-range shortcuts for ~0.1% of vertices.
	for i := 0; i < n/1000; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			add(u, v)
		}
	}
	return fromEdges(n, pairs), nil
}

// LargestComponentVertex returns a vertex in (very likely) the largest
// connected component: the highest-degree vertex, a standard BFS source
// choice for benchmarking.
func (g *Graph) LargestComponentVertex() int {
	best, bestDeg := 0, -1
	for v := 0; v < g.N; v++ {
		if d := g.Degree(v); d > bestDeg {
			best, bestDeg = v, d
		}
	}
	return best
}

// BFSResult holds a traversal's output and per-iteration statistics.
type BFSResult struct {
	// Depth[v] is the BFS depth of v, or -1 if unreached.
	Depth []int32
	// Iterations is the number of frontier expansions (graph diameter from
	// the source).
	Iterations int
	// Visited is the number of reached vertices.
	Visited int
	// FrontierSizes[i] is the input-frontier size of iteration i.
	FrontierSizes []int
	// EdgesExpanded[i] is the number of edges examined in iteration i.
	EdgesExpanded []int
	// PullIterations counts iterations executed in bottom-up (pull) mode by
	// the direction-optimizing traversal.
	PullIterations int
}
