package graphx

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/isa"
	"repro/internal/memsim"
	"repro/internal/profiler"
)

// This file keeps the previous graph builders and BFS push step verbatim,
// renamed with a ref prefix. The differential tests hold the current code
// to exactly their output.

// refFromEdges is the previous fromEdges: a per-vertex slices.Sort over
// the scattered arcs.
func refFromEdges(n int, us, vs []int32) *Graph {
	// Degree count, then prefix-sum into per-vertex cursors.
	pos := make([]int32, n+1)
	for i := range us {
		pos[us[i]]++
		pos[vs[i]]++
	}
	var run int32
	for v := 0; v <= n; v++ {
		run, pos[v] = run+pos[v], run
	}
	edges := make([]int32, 2*len(us))
	for i := range us {
		u, v := us[i], vs[i]
		edges[pos[u]] = v
		pos[u]++
		edges[pos[v]] = u
		pos[v]++
	}
	// pos[v] now marks the end of v's range (and pos[v-1] its start). Sort
	// each range, then compact dedup/self-loop-free runs toward the front;
	// the write cursor never passes a range's read start.
	g := &Graph{N: n, Offsets: make([]int32, n+1)}
	w := int32(0)
	lo := int32(0)
	for v := 0; v < n; v++ {
		hi := pos[v]
		g.Offsets[v] = w
		nb := edges[lo:hi]
		slices.Sort(nb)
		var prev int32 = -1
		for _, u := range nb {
			if u != prev && int(u) != v {
				edges[w] = u
				w++
				prev = u
			}
		}
		lo = hi
	}
	g.Offsets[n] = w
	g.Edges = edges[:w:w]
	return g
}

// refRMAT is the previous RMAT: a switch over the quadrant per draw.
func refRMAT(scale, edgeFactor int, seed int64) (*Graph, error) {
	if scale < 2 || scale > 24 {
		return nil, fmt.Errorf("graphx: RMAT scale %d out of [2,24]", scale)
	}
	if edgeFactor < 1 {
		return nil, fmt.Errorf("graphx: RMAT edge factor %d", edgeFactor)
	}
	n := 1 << scale
	m := n * edgeFactor
	r := rand.New(rand.NewSource(seed))
	us := make([]int32, 0, m)
	vs := make([]int32, 0, m)
	const a, b, c = 0.57, 0.19, 0.19
	for e := 0; e < m; e++ {
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			p := r.Float64()
			switch {
			case p < a:
				// upper-left: nothing
			case p < a+b:
				v |= 1 << bit
			case p < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u == v {
			continue
		}
		us = append(us, int32(u))
		vs = append(vs, int32(v))
	}
	return refFromEdges(n, us, vs), nil
}

// refRoadGrid is the previous RoadGrid, building through refFromEdges.
func refRoadGrid(w, h int, seed int64) (*Graph, error) {
	if w < 2 || h < 2 {
		return nil, fmt.Errorf("graphx: road grid %dx%d too small", w, h)
	}
	n := w * h
	r := rand.New(rand.NewSource(seed))
	us := make([]int32, 0, 2*n)
	vs := make([]int32, 0, 2*n)
	add := func(u, v int) {
		us = append(us, int32(u))
		vs = append(vs, int32(v))
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
	return refFromEdges(n, us, vs), nil
}

// refGunrockBFS is GunrockBFS stepping through refPushIteration.
func refGunrockBFS(g *Graph, src int, cfg BFSConfig, sess *profiler.Session) (*BFSResult, error) {
	if src < 0 || src >= g.N {
		return nil, fmt.Errorf("graphx: source %d out of range [0,%d)", src, g.N)
	}
	em := &bfsEmitter{g: g, sess: sess, cfg: cfg}

	depth := make([]int32, g.N)
	for i := range depth {
		depth[i] = -1
	}
	depth[src] = 0
	res := &BFSResult{Depth: depth, Visited: 1}

	// Setup kernels: label and visited-bitmask initialization.
	em.memset("memset_labels", g.N, 4)
	em.memset("memset_visited_mask", g.N/8+1, 1)

	frontier := []int32{int32(src)}
	unvisited := g.N - 1
	for d := int32(1); len(frontier) > 0; d++ {
		res.Iterations++
		res.FrontierSizes = append(res.FrontierSizes, len(frontier))

		// Unexplored edge volume decides push vs pull. The reduction over
		// frontier degrees is itself a kernel in the direction-optimized
		// pipeline.
		frontierEdges := 0
		for _, u := range frontier {
			frontierEdges += g.Degree(int(u))
		}
		em.frontierStats(len(frontier))

		usePull := float64(frontierEdges) > cfg.pullThreshold()*float64(g.NumEdges()) &&
			unvisited > 0

		var next []int32
		var edgesExamined int
		if usePull {
			next, edgesExamined = em.pullIteration(depth, d)
			res.PullIterations++
		} else {
			next, edgesExamined = em.refPushIteration(frontier, depth, d)
		}
		res.EdgesExpanded = append(res.EdgesExpanded, edgesExamined)
		res.Visited += len(next)
		unvisited -= len(next)
		frontier = next
	}
	return res, nil
}

// refPushIteration is the previous pushIteration: it gathers every
// neighbor into a candidates slice, then tests the candidates in order.
func (em *bfsEmitter) refPushIteration(frontier []int32, depth []int32, d int32) (next []int32, edges int) {
	g := em.g

	// --- Functional expansion (the real traversal work) ------------------
	var candidates []int32
	for _, u := range frontier {
		for _, v := range g.Neighbors(int(u)) {
			edges++
			candidates = append(candidates, v)
		}
	}
	for _, v := range candidates {
		if depth[v] == -1 {
			depth[v] = d
			next = append(next, v)
		}
	}

	// --- advance: load-balanced edge mapping ------------------------------
	if len(frontier) >= 1024 {
		// Gunrock runs a merge-path partitioning kernel before large
		// advances to balance ragged degree distributions.
		var pm isa.Mix
		pm.Add(isa.INT, isa.Warps(float64(len(frontier)*4)))
		pm.Add(isa.LoadGlobal, isa.Warps(float64(len(frontier))))
		pm.Add(isa.StoreGlobal, isa.Warps(float64(len(frontier)/32+1)))
		pm.Add(isa.Misc, isa.Warps(float64(len(frontier))))
		em.launch("advance_lb_partition", len(frontier), pm, []memsim.Stream{
			{Name: "offsets", FootprintBytes: u64(len(frontier) * 4), AccessBytes: u64(len(frontier) * 4), ElemBytes: 4, Pattern: memsim.Coalesced, Partitioned: true},
		}, nil, 0, 0.05)
	}

	nc := len(candidates)
	trace, coverage := em.advanceTrace(frontier, edges)
	if edges > g.NumEdges()/10 {
		// Gunrock fuses advance and filter (LB_CULL) for giant frontiers:
		// one kernel expands the edge frontier, tests the visited labels,
		// and writes the surviving flags — the dominant kernel of the
		// social-network traversal.
		var um isa.Mix
		um.Add(isa.INT, isa.Warps(float64(edges*12+len(frontier)*4)))
		um.Add(isa.LoadGlobal, isa.Warps(float64(edges*3+2*len(frontier))))
		um.Add(isa.StoreGlobal, isa.Warps(float64(edges*2)))
		um.Add(isa.Branch, isa.Warps(float64(edges*2+len(frontier))))
		um.Add(isa.Misc, isa.Warps(float64(edges*2)))
		em.launch("advance_filter_fused", max(len(frontier), 32), um, []memsim.Stream{
			{Name: "queue-out", FootprintBytes: u64(nc*4 + 4), AccessBytes: u64(nc*4 + 4), ElemBytes: 4, Pattern: memsim.Coalesced, Store: true, Partitioned: true},
		}, trace, coverage, em.raggedness(frontier))
		// The fused kernel compacts its output queue with warp-aggregated
		// atomics; no separate scan pass runs.
		return next, edges
	} else {
		var am isa.Mix
		am.Add(isa.INT, isa.Warps(float64(edges*6+len(frontier)*4)))
		am.Add(isa.LoadGlobal, isa.Warps(float64(edges+2*len(frontier))))
		am.Add(isa.StoreGlobal, isa.Warps(float64(edges)))
		am.Add(isa.Branch, isa.Warps(float64(edges+len(frontier))))
		am.Add(isa.Misc, isa.Warps(float64(edges)))
		em.launch("advance_edge_map", max(len(frontier), 32), am, nil, trace, coverage, em.raggedness(frontier))

		// --- filter: visited bitmask test + dedup -------------------------
		var fm isa.Mix
		fm.Add(isa.INT, isa.Warps(float64(nc*5)))
		fm.Add(isa.LoadGlobal, isa.Warps(float64(nc*2)))
		fm.Add(isa.StoreGlobal, isa.Warps(float64(nc)))
		fm.Add(isa.Branch, isa.Warps(float64(nc)))
		fm.Add(isa.Misc, isa.Warps(float64(nc)))
		em.launch("filter_visited", max(nc, 32), fm, []memsim.Stream{
			{Name: "candidates", FootprintBytes: u64(nc*4 + 4), AccessBytes: u64(nc*4 + 4), ElemBytes: 4, Pattern: memsim.Coalesced, Partitioned: true},
			{Name: "labels", FootprintBytes: u64(em.g.N * 4), AccessBytes: u64(nc*4 + 4), ElemBytes: 4, Pattern: memsim.Random, Partitioned: true},
			{Name: "flags-out", FootprintBytes: u64(nc*4 + 4), AccessBytes: u64(nc*4 + 4), ElemBytes: 4, Pattern: memsim.Coalesced, Store: true, Partitioned: true},
		}, nil, 0, 0.4)
	}

	// --- scan + scatter compaction ----------------------------------------
	em.scanKernels(nc)
	return next, edges
}
