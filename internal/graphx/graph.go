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
	"math"
	"math/bits"
	"math/rand"
	"slices"
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
//
// Each bit of an edge's endpoints is one draw of
// rand.New(rand.NewSource(seed)).Float64(), compared with a, a+b and
// a+b+c, and the edges are those of that loop, draw for draw; but RMAT
// calls neither Float64 nor the source. The source is an additive lagged
// Fibonacci generator, x[n] = x[n-607] + x[n-273] mod 2^64, and Int63 is
// x[n] & (1<<63 - 1). randStream reads that sequence in place from a
// 607-slot ring. Float64 is float64(x)/2^63 for the Int63 value x, drawn
// again when that rounds to 1. The conversion is monotone in x and the
// division by 2^63 is exact, so float64(x)/2^63 >= t holds exactly when
// x >= atLeast(t): RMAT compares integers. A draw is redrawn exactly when
// x >= atLeast(1), which is 2^63-512.
func RMAT(scale, edgeFactor int, seed int64) (*Graph, error) {
	if scale < 2 || scale > 24 {
		return nil, fmt.Errorf("graphx: RMAT scale %d out of [2,24]", scale)
	}
	if edgeFactor < 1 {
		return nil, fmt.Errorf("graphx: RMAT edge factor %d", edgeFactor)
	}
	n := 1 << scale
	// The graph's int32 offsets must count both arcs of every edge.
	if edgeFactor > math.MaxInt32/(2*n) {
		return nil, fmt.Errorf("graphx: RMAT scale %d with edge factor %d overflows an int32 CSR", scale, edgeFactor)
	}
	m := n * edgeFactor
	pairs := make([]int32, 0, 2*m)
	const a, b, c = 0.57, 0.19, 0.19
	ta, tab, tabc, redraw := atLeast(a), atLeast(a+b), atLeast(a+b+c), atLeast(1)
	s := newRandStream(seed)
	var i uint // s[i] is the next draw
	shift := 64 - scale
	for e := m; e > 0; e-- {
		// u starts with a marker bit scale places below bit 63. Each draw
		// shifts it up one, so it ends the loop after scale draws; the
		// reversal below shifts it out.
		u, v := uint64(1)<<(63-scale), uint64(0)
		for int64(u) >= 0 {
			var x uint64
			for {
				if i >= streamLen {
					s.refill()
					i = 0
				}
				x = s[i] & (1<<63 - 1)
				i++
				if x < redraw { // else Float64 would round to 1 and draw again
					break
				}
			}
			// The first draw's bits end up lowest, at bit 0, once the
			// endpoints are reversed.
			ub, vb := quadrant(x, ta, tab, tabc)
			u, v = u<<1|ub, v<<1|vb
		}
		ru, rv := bits.Reverse64(u)>>shift, bits.Reverse64(v)>>shift
		if ru == rv {
			continue
		}
		pairs = append(pairs, int32(ru), int32(rv))
	}
	return fromEdges(n, pairs), nil
}

// atLeast returns the least x in [0, 2^63] for which float64(x)/(1<<63) >= t,
// the Float64 comparison RMAT makes, found by binary search over the
// conversion itself. Every x the search converts is below 2^63.
func atLeast(t float64) uint64 {
	lo, hi := uint64(0), uint64(1)<<63
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(int64(mid))/(1<<63) >= t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// quadrant returns u's and v's bit for the draw x, given ta, tab and tabc,
// the thresholds of a, a+b and a+b+c. The draw picks a quadrant:
// upper-left below a, upper-right below a+b, lower-left below a+b+c,
// lower-right above. So u's bit is set from a+b up, and v's bit in
// [a, a+b) and from a+b+c up.
func quadrant(x, ta, tab, tabc uint64) (ub, vb uint64) {
	ub = b2u(x >= tab)
	return ub, b2u(x >= ta) ^ ub ^ b2u(x >= tabc)
}

// b2u is 1 for true and 0 for false; the compiler emits it without a
// branch.
func b2u(b bool) uint64 {
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
//
// One rand.Rand draws, in order, Float64() > 0.12 for each vertex's right
// and then lower street, row by row, and then an Intn pair per highway.
// latticeGraph builds the CSR from the streets kept and the highways.
func RoadGrid(w, h int, seed int64) (*Graph, error) {
	if w < 2 || h < 2 {
		return nil, fmt.Errorf("graphx: road grid %dx%d too small", w, h)
	}
	// The vertex ids and the offsets are int32: the latter count two arcs
	// per street and per highway. Dividing first keeps w*h from
	// overflowing int.
	if w > math.MaxInt32/h || 2*(2*int64(w*h)-int64(w)-int64(h)+int64(w*h/1000)) > math.MaxInt32 {
		return nil, fmt.Errorf("graphx: road grid %dx%d overflows an int32 CSR", w, h)
	}
	n := w * h
	r := rand.New(rand.NewSource(seed))
	links := make([]uint8, n)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			u := y*w + x
			if x+1 < w && r.Float64() > 0.12 { // some missing streets
				links[u] |= linkRight
			}
			if y+1 < h && r.Float64() > 0.12 {
				links[u] |= linkDown
			}
		}
	}
	// Sparse highways: long-range shortcuts for ~0.1% of vertices.
	highways := make([]int32, 0, 2*(n/1000))
	for i := 0; i < n/1000; i++ {
		u, v := r.Intn(n), r.Intn(n)
		highways = append(highways, int32(u), int32(v))
	}
	return latticeGraph(w, h, links, highways), nil
}

// Bits of latticeGraph's links: a vertex's street to its right and to its
// lower neighbor.
const (
	linkRight = 1 << iota
	linkDown
)

// latticeGraph builds the CSR graph of a w x h lattice and its highways.
// Vertex u = y*w + x has a street to u+1 when links[u]&linkRight is set
// (x+1 < w) and to u+w when links[u]&linkDown is set (y+1 < h). The
// highways are undirected pairs (u, v), given consecutively. The graph is
// the one fromEdges builds from the streets and highways: every edge in
// both directions, each list ascending, without repeats or self-loops.
//
// A vertex's lattice neighbors u-w, u-1, u+1, u+w come ascending, so no
// sort is needed: one pass over the vertices merges each one's lattice
// neighbors with its highway ends, which are sorted once, both directions
// of every highway together.
func latticeGraph(w, h int, links []uint8, highways []int32) *Graph {
	n := w * h
	// arcs holds each highway in both directions as from<<32 | to, so
	// sorting orders them by (from, to).
	arcs := make([]uint64, 0, len(highways))
	for i := 0; i < len(highways); i += 2 {
		if u, v := uint64(highways[i]), uint64(highways[i+1]); u != v {
			arcs = append(arcs, u<<32|v, v<<32|u)
		}
	}
	slices.Sort(arcs)
	streets := 0
	for _, l := range links {
		streets += bits.OnesCount8(l)
	}
	g := &Graph{N: n, Offsets: make([]int32, n+1)}
	edges := make([]int32, 2*streets+len(arcs))
	e, k := 0, 0 // edges[e] is the next arc to write, arcs[k] the next highway arc
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			u := y*w + x
			g.Offsets[u] = int32(e)
			var nb [4]int32
			c := 0
			if y > 0 && links[u-w]&linkDown != 0 {
				nb[c] = int32(u - w)
				c++
			}
			if x > 0 && links[u-1]&linkRight != 0 {
				nb[c] = int32(u - 1)
				c++
			}
			if links[u]&linkRight != 0 {
				nb[c] = int32(u + 1)
				c++
			}
			if links[u]&linkDown != 0 {
				nb[c] = int32(u + w)
				c++
			}
			// Merge: a highway end goes in after the lattice neighbors up
			// to it, unless it repeats the last neighbor written.
			start, j := e, 0
			for ; k < len(arcs) && arcs[k]>>32 == uint64(u); k++ {
				t := int32(arcs[k])
				for ; j < c && nb[j] <= t; j++ {
					edges[e] = nb[j]
					e++
				}
				if e == start || edges[e-1] != t {
					edges[e] = t
					e++
				}
			}
			for ; j < c; j++ {
				edges[e] = nb[j]
				e++
			}
		}
	}
	g.Offsets[n] = int32(e)
	g.Edges = edges[:e:e]
	return g
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
