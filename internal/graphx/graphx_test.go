package graphx

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/gpu"
	"repro/internal/profiler"
	"repro/internal/workloads"
)

// fromAdjacency builds a CSR graph from an adjacency list, deduplicating
// and sorting neighbor sets.
func fromAdjacency(adj [][]int32) *Graph {
	n := len(adj)
	g := &Graph{N: n, Offsets: make([]int32, n+1)}
	for v := 0; v < n; v++ {
		nb := adj[v]
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
		// Dedup.
		out := nb[:0]
		var prev int32 = -1
		for _, u := range nb {
			if u != prev && int(u) != v {
				out = append(out, u)
				prev = u
			}
		}
		g.Offsets[v] = int32(len(g.Edges))
		g.Edges = append(g.Edges, out...)
	}
	g.Offsets[n] = int32(len(g.Edges))
	return g
}

// MaxDegree returns the maximum out-degree.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.N; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// ReferenceBFS computes BFS depths with a simple sequential queue — the
// oracle the kernel-issuing implementations are tested against.
func ReferenceBFS(g *Graph, src int) *BFSResult {
	depth := make([]int32, g.N)
	for i := range depth {
		depth[i] = -1
	}
	depth[src] = 0
	queue := []int32{int32(src)}
	res := &BFSResult{Depth: depth, Visited: 1}
	for d := int32(1); len(queue) > 0; d++ {
		var next []int32
		edges := 0
		res.FrontierSizes = append(res.FrontierSizes, len(queue))
		for _, u := range queue {
			for _, v := range g.Neighbors(int(u)) {
				edges++
				if depth[v] == -1 {
					depth[v] = d
					next = append(next, v)
					res.Visited++
				}
			}
		}
		res.EdgesExpanded = append(res.EdgesExpanded, edges)
		res.Iterations++
		queue = next
	}
	return res
}

func TestRMATProperties(t *testing.T) {
	g, err := RMAT(12, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 1<<12 {
		t.Errorf("N = %d", g.N)
	}
	if g.NumEdges() == 0 {
		t.Fatal("no edges")
	}
	// Heavy tail: max degree far above average.
	avg := float64(g.NumEdges()) / float64(g.N)
	if float64(g.MaxDegree()) < 10*avg {
		t.Errorf("max degree %d vs avg %.1f: not heavy-tailed", g.MaxDegree(), avg)
	}
	// Symmetric storage: every edge has its reverse.
	for v := 0; v < g.N; v++ {
		for _, u := range g.Neighbors(v) {
			found := false
			for _, w := range g.Neighbors(int(u)) {
				if int(w) == v {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d->%d missing reverse", v, u)
			}
		}
	}
	if _, err := RMAT(1, 8, 1); err == nil {
		t.Error("tiny scale should fail")
	}
	if _, err := RMAT(10, 0, 1); err == nil {
		t.Error("zero edge factor should fail")
	}
}

func TestRoadGridProperties(t *testing.T) {
	g, err := RoadGrid(64, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 64*64 {
		t.Errorf("N = %d", g.N)
	}
	// Low max degree (lattice + rare shortcuts).
	if g.MaxDegree() > 12 {
		t.Errorf("road max degree = %d, want small", g.MaxDegree())
	}
	avg := float64(g.NumEdges()) / float64(g.N)
	if avg < 2 || avg > 5 {
		t.Errorf("road avg degree = %.2f, want ~3.5", avg)
	}
	if _, err := RoadGrid(1, 5, 1); err == nil {
		t.Error("degenerate grid should fail")
	}
}

func TestCSRNoSelfLoopsNoDuplicates(t *testing.T) {
	g, err := RMAT(10, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N; v++ {
		nb := g.Neighbors(v)
		for i, u := range nb {
			if int(u) == v {
				t.Fatalf("self loop at %d", v)
			}
			if i > 0 && nb[i-1] >= u {
				t.Fatalf("unsorted/duplicate adjacency at %d", v)
			}
		}
	}
}

func TestReferenceBFS(t *testing.T) {
	// A path graph 0-1-2-3: depths are 0,1,2,3.
	g := fromAdjacency([][]int32{{1}, {0, 2}, {1, 3}, {2}})
	res := ReferenceBFS(g, 0)
	for v, want := range []int32{0, 1, 2, 3} {
		if res.Depth[v] != want {
			t.Errorf("depth[%d] = %d, want %d", v, res.Depth[v], want)
		}
	}
	// Four frontier expansions: {0}, {1}, {2}, {3} (the last finds nothing).
	if res.Iterations != 4 || res.Visited != 4 {
		t.Errorf("iterations=%d visited=%d", res.Iterations, res.Visited)
	}
	if len(res.FrontierSizes) != 4 || res.FrontierSizes[0] != 1 {
		t.Errorf("frontier sizes = %v", res.FrontierSizes)
	}
}

func session(t testing.TB) *profiler.Session {
	t.Helper()
	d, err := gpu.New(gpu.RTX3080())
	if err != nil {
		t.Fatal(err)
	}
	s := profiler.NewSession(d)
	t.Cleanup(func() {
		if err := s.Err(); err != nil {
			t.Errorf("launch failed: %v", err)
		}
	})
	return s
}

func TestGunrockBFSMatchesReference(t *testing.T) {
	for name, build := range map[string]func() (*Graph, error){
		"rmat": func() (*Graph, error) { return RMAT(12, 8, 7) },
		"road": func() (*Graph, error) { return RoadGrid(48, 48, 7) },
	} {
		g, err := build()
		if err != nil {
			t.Fatal(err)
		}
		src := g.LargestComponentVertex()
		ref := ReferenceBFS(g, src)
		got, err := GunrockBFS(g, src, BFSConfig{}, session(t))
		if err != nil {
			t.Fatal(err)
		}
		if got.Visited != ref.Visited {
			t.Errorf("%s: visited %d, want %d", name, got.Visited, ref.Visited)
		}
		for v := range ref.Depth {
			if got.Depth[v] != ref.Depth[v] {
				t.Fatalf("%s: depth[%d] = %d, want %d", name, v, got.Depth[v], ref.Depth[v])
			}
		}
	}
}

func TestGunrockBFSBadSource(t *testing.T) {
	g, err := RoadGrid(8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GunrockBFS(g, -1, BFSConfig{}, session(t)); err == nil {
		t.Error("negative source should fail")
	}
	if _, err := GunrockBFS(g, g.N, BFSConfig{}, session(t)); err == nil {
		t.Error("out-of-range source should fail")
	}
}

// traverse runs w's traversal, as Run does, on a fresh session and returns
// the traversal's result with the session.
func traverse(t *testing.T, w *Workload) (*BFSResult, *profiler.Session) {
	t.Helper()
	g, err := w.build()
	if err != nil {
		t.Fatal(err)
	}
	s := session(t)
	res, err := GunrockBFS(g, g.LargestComponentVertex(), w.cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	return res, s
}

func TestSocialBFSKernelSet(t *testing.T) {
	w := SocialBFS()
	if w.Abbr() != "GST" || w.Domain() != workloads.Graph || w.Suite() != workloads.Cactus {
		t.Error("GST identity")
	}
	res, s := traverse(t, w)
	ks := s.Kernels()
	names := map[string]bool{}
	for _, k := range ks {
		names[k.Name] = true
	}
	// Table I: GST executes 12 kernels.
	if len(ks) != 12 {
		list := make([]string, 0, len(ks))
		for _, k := range ks {
			list = append(list, k.Name)
		}
		t.Errorf("GST kernels = %d (%v), want 12", len(ks), list)
	}
	if !names["bottom_up_expand"] {
		t.Error("social input must trigger the pull kernels")
	}
	if res.PullIterations == 0 {
		t.Error("direction optimizer never switched on the social graph")
	}
	// Social graphs have tiny diameter.
	if res.Iterations > 15 {
		t.Errorf("social BFS took %d iterations, want shallow", res.Iterations)
	}
	// Most of the graph must be reachable.
	if float64(res.Visited) < 0.5*float64(1<<17) {
		t.Errorf("visited %d of %d vertices", res.Visited, 1<<17)
	}
}

func TestRoadBFSKernelSetDiffersFromSocial(t *testing.T) {
	res, s := traverse(t, RoadBFS())
	ks := s.Kernels()
	names := map[string]bool{}
	for _, k := range ks {
		names[k.Name] = true
	}
	// Table I: GRU executes 8 kernels.
	if len(ks) != 8 {
		list := make([]string, 0, len(ks))
		for _, k := range ks {
			list = append(list, k.Name)
		}
		t.Errorf("GRU kernels = %d (%v), want 8", len(ks), list)
	}
	// Observation #3: the road input must NOT trigger the pull kernels.
	if names["bottom_up_expand"] || names["bitmap_to_queue"] {
		t.Error("road input must not trigger bottom-up kernels")
	}
	if res.PullIterations != 0 {
		t.Error("direction optimizer switched on the road graph")
	}
	// Road networks have enormous diameter.
	if res.Iterations < 100 {
		t.Errorf("road BFS took %d iterations, want deep traversal", res.Iterations)
	}
}

// TestWorkloadRunConcurrent runs one Workload on two sessions at once, as
// the server does when two devices characterize the same workload. Under
// -race it fails if Run writes shared state; either way both sessions
// must see the same launches.
func TestWorkloadRunConcurrent(t *testing.T) {
	w := &Workload{
		name: "small social BFS", abbr: "SML",
		build: func() (*Graph, error) { return RMAT(10, 8, 5) },
		cfg:   BFSConfig{Replication: 4},
	}
	sessions := []*profiler.Session{session(t), session(t)}
	errs := make([]error, len(sessions))
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Run(s)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if sessions[0].LaunchCount() == 0 {
		t.Fatal("no launches")
	}
	if !reflect.DeepEqual(sessions[0].Launches(), sessions[1].Launches()) {
		t.Error("concurrent runs of one workload launched different streams")
	}
}

// sameGraph fails t unless got and want are the same CSR graph.
func sameGraph(t *testing.T, what string, got, want *Graph) {
	t.Helper()
	if got.N != want.N || !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Edges, want.Edges) {
		t.Fatalf("%s: graph (N %d, %d edges) differs from the reference (N %d, %d edges)",
			what, got.N, got.NumEdges(), want.N, want.NumEdges())
	}
}

// TestGeneratorsMatchReference holds RMAT and RoadGrid to the graphs the
// per-vertex-sort builder and the quadrant switch produced, over several
// scales and seeds and at the study's own sizes.
func TestGeneratorsMatchReference(t *testing.T) {
	for _, scale := range []int{2, 3, 6, 10, 13} {
		for _, ef := range []int{1, 4, 16} {
			for seed := int64(1); seed <= 3; seed++ {
				got, err := RMAT(scale, ef, seed)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := refRMAT(scale, ef, seed)
				sameGraph(t, "RMAT", got, want)
			}
		}
	}
	for _, sz := range [][3]int{{2, 2, 1}, {7, 3, 2}, {64, 64, 3}, {300, 200, 4}, {1000, 9, 5}} {
		got, err := RoadGrid(sz[0], sz[1], int64(sz[2]))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := refRoadGrid(sz[0], sz[1], int64(sz[2]))
		sameGraph(t, "RoadGrid", got, want)
	}
	// Grids of 1,000 vertices or more draw highways.
	for _, sz := range [][2]int{{1000, 2}, {2, 1000}, {40, 40}, {33, 31}} {
		for seed := int64(1); seed <= 20; seed++ {
			got, err := RoadGrid(sz[0], sz[1], seed)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := refRoadGrid(sz[0], sz[1], seed)
			sameGraph(t, "RoadGrid", got, want)
		}
	}
	if testing.Short() {
		return
	}
	got, _ := RMAT(17, 16, 4242)
	want, _ := refRMAT(17, 16, 4242)
	sameGraph(t, "GST graph", got, want)
	got, _ = RoadGrid(1024, 1024, 1717)
	want, _ = refRoadGrid(1024, 1024, 1717)
	sameGraph(t, "GRU graph", got, want)
}

// TestFromEdgesMatchesReference feeds both builders random edge lists with
// self-loops and repeated edges, which the generators never produce.
func TestFromEdgesMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		n := 1 + r.Intn([]int{4, 40, 1000}[i%3])
		m := r.Intn(4 * n)
		pairs := make([]int32, 0, 2*m)
		var us, vs []int32
		for e := 0; e < m; e++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			pairs = append(pairs, u, v)
			us, vs = append(us, u), append(vs, v)
		}
		sameGraph(t, "fromEdges", fromEdges(n, pairs), refFromEdges(n, us, vs))
	}
}

// TestLatticeGraphMatchesFromEdges feeds latticeGraph random streets and
// highways that the generator rarely or never draws: repeats, highways
// along a street in either direction, self-loops, and ends at vertex 0 and
// n-1, on strips two vertices wide or tall among other shapes.
func TestLatticeGraphMatchesFromEdges(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	shapes := [][2]int{{2, 2}, {2, 17}, {23, 2}, {2, 300}, {300, 2}, {5, 7}, {31, 33}}
	for i := 0; i < 400; i++ {
		w, h := 2+r.Intn(40), 2+r.Intn(40)
		if i < len(shapes) {
			w, h = shapes[i][0], shapes[i][1]
		}
		n := w * h
		// keep is the share of streets kept: every fifth grid keeps all
		// or none.
		keep := r.Float64()
		if i%5 == 0 {
			keep = float64(i % 2)
		}
		links := make([]uint8, n)
		var pairs []int32
		for u := 0; u < n; u++ {
			if u%w+1 < w && r.Float64() < keep {
				links[u] |= linkRight
				pairs = append(pairs, int32(u), int32(u+1))
			}
			if u+w < n && r.Float64() < keep {
				links[u] |= linkDown
				pairs = append(pairs, int32(u), int32(u+w))
			}
		}
		var highways []int32
		add := func(u, v int) { highways = append(highways, int32(u), int32(v)) }
		either := func(u, v int) { // in a random orientation
			if r.Intn(2) == 0 {
				u, v = v, u
			}
			add(u, v)
		}
		for j := r.Intn(12); j > 0; j-- {
			u := r.Intn(n)
			switch r.Intn(7) {
			case 0:
				add(u, r.Intn(n))
			case 1: // along a street, kept or not
				if v := u + 1; v%w != 0 {
					either(u, v)
				}
			case 2:
				if v := u + w; v < n {
					either(u, v)
				}
			case 3: // repeated, in both orientations
				v := r.Intn(n)
				add(u, v)
				add(u, v)
				add(v, u)
			case 4:
				add(0, u)
			case 5:
				add(u, n-1)
			case 6:
				add(u, u)
			}
		}
		want := fromEdges(n, append(pairs, highways...))
		sameGraph(t, "latticeGraph", latticeGraph(w, h, links, highways), want)
	}
}

// TestGeneratorsRejectInt32Overflow asks for graphs whose vertex ids or
// offsets overflow int32, among them sizes whose vertex count overflows
// int. Each must fail before the generator allocates its graph.
func TestGeneratorsRejectInt32Overflow(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  func() (*Graph, error)
	}{
		{"RMAT 24x64", func() (*Graph, error) { return RMAT(24, 64, 1) }},
		{"RMAT 2xMaxInt32/8+1", func() (*Graph, error) { return RMAT(2, math.MaxInt32/8+1, 1) }},
		{"RMAT 24xMaxInt", func() (*Graph, error) { return RMAT(24, math.MaxInt, 1) }},
		{"RoadGrid 2^16x(2^15+1)", func() (*Graph, error) { return RoadGrid(1<<16, 1<<15+1, 1) }},
		{"RoadGrid 23170x23170", func() (*Graph, error) { return RoadGrid(23170, 23170, 1) }},
		{"RoadGrid MaxInt32x2", func() (*Graph, error) { return RoadGrid(math.MaxInt32, 2, 1) }},
		{"RoadGrid MaxIntxMaxInt", func() (*Graph, error) { return RoadGrid(math.MaxInt, math.MaxInt, 1) }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := tc.gen()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: built a graph of %d vertices", tc.name, g.N)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
			t.Errorf("%s: allocated %d bytes before failing", tc.name, d)
		}
	}
}

// TestPushIterationMatchesReference holds the fused push step to the
// two-loop one: the same traversal result and the same launches, on graphs
// whose frontiers reach the partition, fused and filter paths.
func TestPushIterationMatchesReference(t *testing.T) {
	launched := map[string]bool{}
	for name, build := range map[string]func() (*Graph, error){
		"rmat12": func() (*Graph, error) { return RMAT(12, 8, 7) },
		"rmat14": func() (*Graph, error) { return RMAT(14, 16, 9) },
		"road":   func() (*Graph, error) { return RoadGrid(96, 64, 7) },
	} {
		g, err := build()
		if err != nil {
			t.Fatal(err)
		}
		src := g.LargestComponentVertex()
		for _, cfg := range []BFSConfig{
			{},
			{PullThreshold: 0.6, Replication: 24},
		} {
			gs, ws := session(t), session(t)
			got, err := GunrockBFS(g, src, cfg, gs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refGunrockBFS(g, src, cfg, ws)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %+v: BFS result differs from the reference", name, cfg)
			}
			if !reflect.DeepEqual(gs.Launches(), ws.Launches()) {
				t.Errorf("%s %+v: launches differ from the reference", name, cfg)
			}
			for _, l := range gs.Launches() {
				launched[l.Name] = true
			}
		}
	}
	for _, k := range []string{"advance_lb_partition", "advance_filter_fused", "advance_edge_map", "filter_visited", "bottom_up_expand"} {
		if !launched[k] {
			t.Errorf("no case launched %s", k)
		}
	}
}

// TestTracesMatchReference holds advanceTrace and pullTrace to the
// previous trace functions at every level of a BFS: the push frontier of
// level d is every vertex at depth d-1, and the pull sees the labels as
// they stand after level d. The graphs' frontiers reach both sampled
// paths, and one emitter serves every call, so each call refills the
// buffer the previous one left.
func TestTracesMatchReference(t *testing.T) {
	for name, build := range map[string]func() (*Graph, error){
		"rmat14": func() (*Graph, error) { return RMAT(14, 16, 9) },
		"road":   func() (*Graph, error) { return RoadGrid(96, 64, 7) },
	} {
		g, err := build()
		if err != nil {
			t.Fatal(err)
		}
		ref := ReferenceBFS(g, g.LargestComponentVertex())
		sampled := map[string]bool{}
		for _, r := range []int{1, 24} {
			em := &bfsEmitter{g: g, cfg: BFSConfig{Replication: r}}
			depth := make([]int32, g.N)
			for d := int32(1); d <= slices.Max(ref.Depth); d++ {
				var frontier []int32
				edges := 0
				for v, dv := range ref.Depth {
					if dv == d-1 {
						frontier = append(frontier, int32(v))
						edges += g.Degree(v)
					}
					depth[v] = -1
					if dv >= 0 && dv <= d {
						depth[v] = dv
					}
				}
				check := func(kind string, got []uint64, gotCov float64, want []uint64, wantCov float64) {
					t.Helper()
					if !slices.Equal(got, want) || gotCov != wantCov {
						t.Fatalf("%s r=%d level %d: %s trace has %d addresses at coverage %g, want %d at %g",
							name, r, d, kind, len(got), gotCov, len(want), wantCov)
					}
					if wantCov < 1 {
						sampled[kind] = true
					}
				}
				got, cov := em.advanceTrace(frontier, edges)
				want, wantCov := em.refAdvanceTrace(frontier, edges)
				check("advance", got, cov, want, wantCov)
				got, cov = em.pullTrace(depth, d, edges)
				want, wantCov = em.refPullTrace(depth, d, edges)
				check("pull", got, cov, want, wantCov)
			}
		}
		if name == "rmat14" && !(sampled["advance"] && sampled["pull"]) {
			t.Errorf("%s: sampled paths reached %v, want advance and pull", name, sampled)
		}
	}
}

func TestBFSConfigDefaults(t *testing.T) {
	var c BFSConfig
	if c.pullThreshold() != 0.05 {
		t.Error("default pull threshold")
	}
	c.PullThreshold = 0.2
	if c.pullThreshold() != 0.2 {
		t.Error("explicit config ignored")
	}
}

var benchGraphSink *Graph

// benchGraph runs gen once per iteration and reports its allocations.
func benchGraph(b *testing.B, gen func() (*Graph, error)) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := gen()
		if err != nil {
			b.Fatal(err)
		}
		benchGraphSink = g
	}
}

// BenchmarkRMAT builds the cactus bench graphx_rmat graph and the GST
// input.
func BenchmarkRMAT(b *testing.B) {
	b.Run("s15_ef8", func(b *testing.B) { benchGraph(b, func() (*Graph, error) { return RMAT(15, 8, 42) }) })
	b.Run("GST_s17_ef16", func(b *testing.B) { benchGraph(b, func() (*Graph, error) { return RMAT(17, 16, 4242) }) })
}

// BenchmarkRoadGrid builds the GRU input.
func BenchmarkRoadGrid(b *testing.B) {
	b.Run("GRU_1024x1024", func(b *testing.B) { benchGraph(b, func() (*Graph, error) { return RoadGrid(1024, 1024, 1717) }) })
}

// BenchmarkGunrockBFS times GST's and GRU's traversal, trace replay
// included, each iteration on a fresh rtx3080 session; the graph is built
// once, outside the timer.
func BenchmarkGunrockBFS(b *testing.B) {
	for _, w := range []*Workload{SocialBFS(), RoadBFS()} {
		b.Run(w.abbr, func(b *testing.B) {
			g, err := w.build()
			if err != nil {
				b.Fatal(err)
			}
			src := g.LargestComponentVertex()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := GunrockBFS(g, src, w.cfg, session(b)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
