package core

import (
	"fmt"
	"math"

	"repro/internal/profiler"
	"repro/internal/roofline"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// ClusterAnalysis is the Fig. 9 pipeline result: FAMD-denoised coordinates
// of the dominant kernels and their hierarchical clustering.
type ClusterAnalysis struct {
	Observations []Observation
	FAMD         *stats.FAMDResult
	Dendrogram   *stats.Dendrogram
	// Assign is the cut into K clusters (ids 0..K-1 per observation).
	Assign []int
	K      int
}

// Cluster runs the paper's Section V-D pipeline over dominant-kernel
// observations: quantitative variables are the Table IV metrics (intensity
// and throughput metrics log-transformed), qualitative variables are the
// two roofline labels; FAMD keeps the most significant dimensions
// (denoising), and Ward-linkage agglomerative clustering is cut into k
// primary clusters (the paper uses six).
func Cluster(obs []Observation, model roofline.Model, famdDims, k int) (*ClusterAnalysis, error) {
	if len(obs) < k {
		return nil, fmt.Errorf("core: %d observations for %d clusters", len(obs), k)
	}
	data := stats.MixedData{
		QualNames: []string{"intensity", "boundedness"},
	}
	for _, m := range profiler.Metrics() {
		data.QuantNames = append(data.QuantNames, m.String())
	}
	for _, o := range obs {
		row := make([]float64, 0, profiler.NumMetrics)
		for _, m := range profiler.Metrics() {
			v := o.Metrics.Get(m)
			if m == profiler.InstIntensity || m == profiler.GIPS || m == profiler.DRAMReadThroughput {
				v = math.Log10(v + 1e-9)
			}
			row = append(row, v)
		}
		data.Quant = append(data.Quant, row)
		data.Qual = append(data.Qual, []string{
			model.Classify(o.II).String(),
			model.BoundOf(o.GIPS).String(),
		})
	}
	famd, err := stats.FAMD(data, famdDims)
	if err != nil {
		return nil, err
	}
	labels := make([]string, len(obs))
	for i, o := range obs {
		labels[i] = o.Workload + ":" + o.Kernel
	}
	dend, err := stats.Agglomerative(famd.Coords, labels)
	if err != nil {
		return nil, err
	}
	assign, err := dend.Cut(k)
	if err != nil {
		return nil, err
	}
	return &ClusterAnalysis{
		Observations: obs, FAMD: famd, Dendrogram: dend, Assign: assign, K: k,
	}, nil
}

// SuiteShareByCluster returns, per cluster, the fraction of member kernels
// belonging to the given suite — Observation #12's coverage measure.
func (c *ClusterAnalysis) SuiteShareByCluster(s workloads.Suite) []float64 {
	counts := make([]int, c.K)
	suite := make([]int, c.K)
	for i, o := range c.Observations {
		counts[c.Assign[i]]++
		if o.Suite == s {
			suite[c.Assign[i]]++
		}
	}
	out := make([]float64, c.K)
	for i := range out {
		if counts[i] > 0 {
			out[i] = float64(suite[i]) / float64(counts[i])
		}
	}
	return out
}

// ClustersDominatedBy returns the clusters where the suite holds a strict
// majority of the member kernels.
func (c *ClusterAnalysis) ClustersDominatedBy(s workloads.Suite) []int {
	shares := c.SuiteShareByCluster(s)
	var out []int
	for i, f := range shares {
		if f > 0.5 {
			out = append(out, i)
		}
	}
	return out
}

// ClustersCoveredBy returns how many clusters contain at least one kernel
// of the suite.
func (c *ClusterAnalysis) ClustersCoveredBy(s workloads.Suite) int {
	shares := c.SuiteShareByCluster(s)
	n := 0
	for _, f := range shares {
		if f > 0 {
			n++
		}
	}
	return n
}
