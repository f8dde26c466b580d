package graphx

import (
	"fmt"

	"repro/internal/profiler"
	"repro/internal/workloads"
)

// Workload is one configured graph-traversal benchmark.
type Workload struct {
	name, abbr string
	build      func() (*Graph, error)
	cfg        BFSConfig
}

var _ workloads.Workload = (*Workload)(nil)

// Name returns the full workload name.
func (w *Workload) Name() string { return w.name }

// Abbr returns the paper's abbreviation.
func (w *Workload) Abbr() string { return w.abbr }

// Suite returns Cactus.
func (w *Workload) Suite() workloads.Suite { return workloads.Cactus }

// Domain returns the graph-analytics domain.
func (w *Workload) Domain() workloads.Domain { return workloads.Graph }

// Run generates the graph and performs the traversal against s. It keeps
// no state, so one Workload may run on several sessions at once.
func (w *Workload) Run(s *profiler.Session) error {
	g, err := w.build()
	if err != nil {
		return fmt.Errorf("graphx: %s: %w", w.abbr, err)
	}
	if _, err := GunrockBFS(g, g.LargestComponentVertex(), w.cfg, s); err != nil {
		return fmt.Errorf("graphx: %s: %w", w.abbr, err)
	}
	return nil
}

// SocialBFS returns GST: direction-optimized BFS on an RMAT social graph —
// the stand-in for SOC-Twitter10 (21 M vertices / 265 M edges in the paper;
// reduced scale here, see DESIGN.md). Wide frontiers trigger the bottom-up
// kernels.
func SocialBFS() *Workload {
	return &Workload{
		name: "Gunrock BFS on social network (RMAT)",
		abbr: "GST",
		build: func() (*Graph, error) {
			return RMAT(17, 16, 4242)
		},
		cfg: BFSConfig{
			DirectionOptimized: true,
			Replication:        24,
			// Switch to pull only once the frontier's unexplored edge volume
			// dominates the graph: the giant middle expansion then runs as a
			// push advance, matching Gunrock's Twitter profiles where the
			// advance kernel carries ~70% of GPU time.
			PullThreshold: 0.6,
		},
	}
}

// RoadBFS returns GRU: the same direction-optimized BFS binary on a road
// lattice — the stand-in for Road-USA (23 M vertices / 28 M edges in the
// paper). Narrow frontiers never cross the pull threshold, so the bottom-up
// kernels never launch: same code base, different kernels (Observation #3).
func RoadBFS() *Workload {
	return &Workload{
		name: "Gunrock BFS on road network (grid)",
		abbr: "GRU",
		build: func() (*Graph, error) {
			return RoadGrid(1024, 1024, 1717)
		},
		cfg: BFSConfig{DirectionOptimized: true, Replication: 20},
	}
}
