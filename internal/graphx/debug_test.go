package graphx

import (
	"testing"

	"repro/internal/units"
)

// TestDebugTimeShares prints per-kernel shares under -v; never fails.
func TestDebugTimeShares(t *testing.T) {
	for _, w := range []*Workload{SocialBFS(), RoadBFS()} {
		res, s := traverse(t, w)
		total := s.TotalTime().Float()
		agg := s.TotalWarpInstructions().Float()
		var txns units.Txns
		for _, l := range s.Launches() {
			txns += l.Traffic.DRAMTxns
		}
		t.Logf("=== %s: %d launches, %.3f ms, %d kernels, %d Mwarps, agg II=%.2f agg GIPS=%.2f iters=%d pull=%d",
			w.Abbr(), s.LaunchCount(), total*1e3, len(s.Kernels()),
			s.TotalWarpInstructions()/1e6, agg/(txns.Float()+1),
			agg/total/1e9, res.Iterations, res.PullIterations)
		for _, k := range s.Kernels() {
			m := k.Metrics()
			t.Logf("  %-28s share=%5.1f%% inv=%4d II=%8.2f GIPS=%7.2f L1=%.2f L2=%.2f",
				k.Name, 100*k.TotalTime.Float()/total, k.Invocations, m[1], m[0], m[4], m[5])
		}
	}
}
