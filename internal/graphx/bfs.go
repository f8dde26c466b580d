package graphx

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/memsim"
	"repro/internal/profiler"
)

// BFSConfig parameterizes the frontier-based (Gunrock-style) traversal. The
// traversal is direction-optimizing (Beamer's push->pull switch for wide
// frontiers, which Gunrock implements): the switch is what makes the
// social-network input execute a different kernel set than the
// road-network input (Observation #3).
type BFSConfig struct {
	// PullThreshold switches to bottom-up when the frontier's unexplored
	// edge volume exceeds this fraction of all edges. Zero defaults to 0.05.
	PullThreshold float64
	// Replication extrapolates the reduced graph to paper scale: kernel
	// mixes and streams are scaled by this factor and trace addresses are
	// stretched so array footprints (labels, edge lists) match the
	// full-size graph's. Zero defaults to 1.
	Replication int
}

func (c BFSConfig) pullThreshold() float64 {
	if c.PullThreshold <= 0 {
		return 0.05
	}
	return c.PullThreshold
}

func (c BFSConfig) replication() int {
	if c.Replication <= 0 {
		return 1
	}
	return c.Replication
}

// GunrockBFS runs a frontier-based BFS over g from src, issuing the
// per-iteration kernel launches a Gunrock-style advance/filter pipeline
// performs. Every launch's geometry, instruction mix, and memory trace are
// derived from the actual frontier of that iteration.
func GunrockBFS(g *Graph, src int, cfg BFSConfig, sess *profiler.Session) (*BFSResult, error) {
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
			next, edgesExamined = em.pushIteration(frontier, depth, d)
		}
		res.EdgesExpanded = append(res.EdgesExpanded, edgesExamined)
		res.Visited += len(next)
		unvisited -= len(next)
		frontier = next
	}
	return res, nil
}

// bfsEmitter issues the traversal's kernels.
type bfsEmitter struct {
	g    *Graph
	sess *profiler.Session
	cfg  BFSConfig

	// trace is the address buffer every traced launch fills in turn; each
	// launch's spec borrows it until the session has priced it.
	trace []uint64
}

const (
	labelBase uint64 = 0x1000_0000 // synthetic base addresses per array
	edgeBase  uint64 = 0x4000_0000
	offsBase  uint64 = 0x8000_0000
)

// maxTraceEdges caps the number of edge gathers replayed through the cache
// simulator per launch; larger launches are sampled.
const maxTraceEdges = 40960

func (em *bfsEmitter) launch(name string, threads int, mix isa.Mix, streams []memsim.Stream, trace []uint64, coverage, div float64) {
	r := float64(em.cfg.replication())
	spec := gpu.Replicated(name, threads, 256, r, mix, streams, div)
	if trace != nil {
		// The trace replays a 1/r tile of the launch's accesses.
		spec.Trace = trace
		spec.TraceCoverage = coverage / r
	}
	em.sess.Submit(spec)
}

func (em *bfsEmitter) memset(name string, elems, elemBytes int) {
	var m isa.Mix
	m.Add(isa.StoreGlobal, isa.Warps(float64(elems)))
	m.Add(isa.INT, isa.Warps(float64(elems)))
	m.Add(isa.Misc, isa.Warps(float64(elems)))
	bytes := uint64(elems * elemBytes)
	if bytes == 0 {
		bytes = 1
	}
	em.launch(name, elems, m, []memsim.Stream{
		{Name: "out", FootprintBytes: bytes, AccessBytes: bytes, ElemBytes: elemBytes, Pattern: memsim.Coalesced, Store: true, Partitioned: true},
	}, nil, 0, 0)
}

// pushIteration expands the frontier top-down: advance gathers neighbor
// lists, filter deduplicates and tests the visited labels, and a two-phase
// scan compacts the surviving vertices into the next frontier.
func (em *bfsEmitter) pushIteration(frontier []int32, depth []int32, d int32) (next []int32, edges int) {
	g := em.g

	// --- Functional expansion (the real traversal work) ------------------
	// Every neighbor of the frontier is a filter candidate, tested against
	// the labels in gather order.
	for _, u := range frontier {
		nb := g.Neighbors(int(u))
		edges += len(nb)
		for _, v := range nb {
			if depth[v] == -1 {
				depth[v] = d
				next = append(next, v)
			}
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

	nc := edges // candidates
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

// pullIteration expands bottom-up: every unvisited vertex scans its
// neighbors for a visited parent. Executed only on wide frontiers.
func (em *bfsEmitter) pullIteration(depth []int32, d int32) (next []int32, edges int) {
	g := em.g

	// Frontier bitmap conversion.
	em.memset("frontier_to_bitmap", g.N/8+1, 1)

	unvisited := 0
	for v := 0; v < g.N; v++ {
		if depth[v] != -1 {
			continue
		}
		unvisited++
		for _, u := range g.Neighbors(v) {
			edges++
			if depth[u] == d-1 {
				depth[v] = d
				next = append(next, int32(v))
				break // early exit on first visited parent
			}
		}
	}

	var bm isa.Mix
	bm.Add(isa.INT, isa.Warps(float64(edges*4+unvisited*6)))
	bm.Add(isa.LoadGlobal, isa.Warps(float64(edges+unvisited*2)))
	bm.Add(isa.StoreGlobal, isa.Warps(float64(len(next))))
	bm.Add(isa.Branch, isa.Warps(float64(edges+unvisited)))
	bm.Add(isa.Misc, isa.Warps(float64(edges)))
	trace, coverage := em.pullTrace(depth, d, edges)
	em.launch("bottom_up_expand", max(unvisited, 32), bm, nil, trace, coverage, 0.35)

	// Convert the produced bitmap back to a queue for the next iteration.
	var cm isa.Mix
	cm.Add(isa.INT, isa.Warps(float64(g.N/8)))
	cm.Add(isa.LoadGlobal, isa.Warps(float64(g.N/32+1)))
	cm.Add(isa.StoreGlobal, isa.Warps(float64(len(next)+1)))
	cm.Add(isa.Misc, isa.Warps(float64(g.N/32+1)))
	em.launch("bitmap_to_queue", g.N/32+1, cm, []memsim.Stream{
		{Name: "bitmap", FootprintBytes: u64(g.N/8 + 1), AccessBytes: u64(g.N/8 + 1), ElemBytes: 4, Pattern: memsim.Coalesced, Partitioned: true},
		{Name: "queue-out", FootprintBytes: u64(len(next)*4 + 4), AccessBytes: u64(len(next)*4 + 4), ElemBytes: 4, Pattern: memsim.Coalesced, Store: true, Partitioned: true},
	}, nil, 0, 0.2)
	return next, edges
}

// frontierStats issues the degree-reduction kernel the direction-optimizer
// runs to size the frontier's unexplored edge volume.
func (em *bfsEmitter) frontierStats(frontierLen int) {
	n := max(frontierLen, 1)
	var m isa.Mix
	m.Add(isa.INT, isa.Warps(float64(n*2)))
	m.Add(isa.LoadGlobal, isa.Warps(float64(n)))
	m.Add(isa.LoadShared, isa.Warps(float64(n/2+1)))
	m.Add(isa.StoreShared, isa.Warps(float64(n/2+1)))
	m.Add(isa.Sync, isa.Warps(float64(n/64+1)))
	m.Add(isa.StoreGlobal, isa.Warps(float64(n/256+1)))
	m.Add(isa.Misc, isa.Warps(float64(n)))
	em.launch("frontier_degree_reduce", n, m, []memsim.Stream{
		{Name: "frontier", FootprintBytes: u64(n * 4), AccessBytes: u64(n * 4), ElemBytes: 4, Pattern: memsim.Coalesced, Partitioned: true},
		{Name: "degrees", FootprintBytes: u64(em.g.N * 4), AccessBytes: u64(n * 4), ElemBytes: 4, Pattern: memsim.Random, Partitioned: true},
	}, nil, 0, 0.05)
}

// scanKernels issues the two-phase exclusive scan used for stream
// compaction of n flags.
func (em *bfsEmitter) scanKernels(n int) {
	if n < 1 {
		n = 1
	}
	var up isa.Mix
	up.Add(isa.INT, isa.Warps(float64(n*3)))
	up.Add(isa.LoadGlobal, isa.Warps(float64(n)))
	up.Add(isa.LoadShared, isa.Warps(float64(n*2)))
	up.Add(isa.StoreShared, isa.Warps(float64(n*2)))
	up.Add(isa.Sync, isa.Warps(float64(n/64+1)))
	up.Add(isa.StoreGlobal, isa.Warps(float64(n/256+1)))
	up.Add(isa.Misc, isa.Warps(float64(n)))
	flags := u64(n*4 + 4)
	em.launch("scan_block_reduce", n, up, []memsim.Stream{
		{Name: "flags", FootprintBytes: flags, AccessBytes: flags, ElemBytes: 4, Pattern: memsim.Coalesced, Partitioned: true},
	}, nil, 0, 0)

	var down isa.Mix
	down.Add(isa.INT, isa.Warps(float64(n*4)))
	down.Add(isa.LoadGlobal, isa.Warps(float64(n*2)))
	down.Add(isa.StoreGlobal, isa.Warps(float64(n)))
	down.Add(isa.LoadShared, isa.Warps(float64(n*2)))
	down.Add(isa.StoreShared, isa.Warps(float64(n*2)))
	down.Add(isa.Sync, isa.Warps(float64(n/64+1)))
	down.Add(isa.Misc, isa.Warps(float64(n)))
	em.launch("scan_downsweep_scatter", n, down, []memsim.Stream{
		{Name: "flags", FootprintBytes: flags, AccessBytes: flags * 2, ElemBytes: 4, Pattern: memsim.Coalesced, Partitioned: true},
		{Name: "queue-out", FootprintBytes: flags, AccessBytes: flags, ElemBytes: 4, Pattern: memsim.Coalesced, Store: true, Partitioned: true},
	}, nil, 0, 0.1)
}

// traceBuf returns the emitter's trace buffer, emptied, with room for n
// addresses. A buffer too small for n is replaced by one of at least twice
// its capacity, so frontiers that widen level by level reallocate it a few
// times per traversal, not once per level.
func (em *bfsEmitter) traceBuf(n int) []uint64 {
	if cap(em.trace) < n {
		em.trace = make([]uint64, 0, max(n, 2*cap(em.trace)))
	}
	return em.trace[:0]
}

// advanceTrace records (a sample of) the advance kernel's actual memory
// accesses into the emitter's trace buffer: frontier reads, CSR offset
// reads, edge-list reads, and label lookups at the real neighbor ids.
func (em *bfsEmitter) advanceTrace(frontier []int32, totalEdges int) ([]uint64, float64) {
	g := em.g
	// Sample every stride-th frontier vertex, so the sample's edge volume
	// fits the trace budget.
	stride := max((totalEdges+maxTraceEdges-1)/maxTraceEdges, 1)
	sampled, sampledEdges := 0, 0
	for i := 0; i < len(frontier); i += stride {
		sampled++
		sampledEdges += g.Degree(int(frontier[i]))
	}
	// One offset read per sampled vertex, one edge and one label read per
	// sampled edge.
	trace := em.traceBuf(sampled + 2*sampledEdges)
	r := uint64(em.cfg.replication())
	for i := 0; i < len(frontier); i += stride {
		u := frontier[i]
		trace = append(trace, offsBase+uint64(u)*4*r)
		lo, hi := g.Offsets[u], g.Offsets[u+1]
		base := edgeBase + uint64(lo)*4*r
		for e := lo; e < hi; e++ {
			// Edge runs stay sequential; runs of different vertices land
			// r-stretched apart, and label gathers spread over the
			// full-scale label array.
			trace = append(trace, base+uint64(e-lo)*4, labelBase+uint64(g.Edges[e])*4*r)
		}
	}
	em.trace = trace
	coverage := float64(max(sampledEdges, 1)) / float64(max(totalEdges, 1))
	if coverage > 1 {
		coverage = 1
	}
	return trace, coverage
}

// pullTrace records the bottom-up kernel's accesses for a sample of
// unvisited vertices into the emitter's trace buffer.
func (em *bfsEmitter) pullTrace(depth []int32, d int32, totalEdges int) ([]uint64, float64) {
	g := em.g
	coverage := 1.0
	if totalEdges > maxTraceEdges {
		coverage = float64(maxTraceEdges) / float64(totalEdges)
	}
	// Walk the sample once to size the buffer, then again to fill it.
	n := 0
	pullSample(g, depth, d, func(_ int, read []int32) { n += 1 + 2*len(read) })
	trace := em.traceBuf(n)
	r := uint64(em.cfg.replication())
	pullSample(g, depth, d, func(v int, read []int32) {
		trace = append(trace, offsBase+uint64(v)*4*r)
		lo := uint64(g.Offsets[v])
		for i, u := range read {
			trace = append(trace, edgeBase+(lo*r+uint64(i))*4, labelBase+uint64(u)*4*r)
		}
	})
	em.trace = trace
	return trace, coverage
}

// pullSample calls visit, in vertex order, with each vertex the bottom-up
// trace samples and the neighbors that vertex reads: up to and including
// its first parent at depth d-1. It follows the work pattern the
// functional pass executed: the vertices that were unvisited entering
// this iteration have depth -1 or were assigned d during it. The sample
// ends with the first vertex that brings the neighbor reads to
// maxTraceEdges.
func pullSample(g *Graph, depth []int32, d int32, visit func(v int, read []int32)) {
	replayed := 0
	for v := 0; v < g.N && replayed < maxTraceEdges; v++ {
		if depth[v] != -1 && depth[v] != d {
			continue
		}
		nb := g.Neighbors(v)
		k := len(nb)
		for i, u := range nb {
			if depth[u] == d-1 {
				k = i + 1
				break
			}
		}
		visit(v, nb[:k])
		replayed += k
	}
}

// raggedness estimates advance divergence from the frontier's degree spread.
func (em *bfsEmitter) raggedness(frontier []int32) float64 {
	if len(frontier) == 0 {
		return 0
	}
	var sum, max float64
	for _, u := range frontier {
		d := float64(em.g.Degree(int(u)))
		sum += d
		if d > max {
			max = d
		}
	}
	mean := sum / float64(len(frontier))
	if max <= 0 || mean <= 0 {
		return 0
	}
	r := 1 - mean/max
	return 0.6 * r
}

func u64(v int) uint64 {
	if v < 1 {
		return 1
	}
	return uint64(v)
}
