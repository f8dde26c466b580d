// Metrics registry: the counters registry's second generation. One
// Registry unifies the pipeline's counters with fixed-bucket histograms
// (per-workload modeled time, host wall latency, cache hit-rate
// distributions) behind a single Snapshot, rendered in the Prometheus text
// exposition format — served at /metrics and written by -metrics FILE.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
)

// HistogramSpec declares a fixed-bucket histogram: Buckets are the
// inclusive upper bounds of the finite buckets, in increasing order; an
// implicit +Inf bucket catches the rest. Observations are assigned to the
// first bucket whose bound is >= the value, Prometheus-style.
type HistogramSpec struct {
	// Name is the histogram's registry key (dot-separated like counters).
	Name string
	// Help is the one-line description carried into # HELP output.
	Help string
	// Buckets are the finite upper bounds, increasing.
	Buckets []float64
}

// Canonical pipeline histograms. Bounds are decades (and half-decades for
// fractions): the quantities span orders of magnitude, so geometric
// buckets keep every regime visible.
var (
	// HistWorkloadModeledSeconds distributes per-workload modeled GPU time.
	HistWorkloadModeledSeconds = HistogramSpec{
		Name:    "workload.modeled_seconds",
		Help:    "modeled GPU seconds per characterized workload",
		Buckets: []float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10},
	}
	// HistWorkloadWallSeconds distributes the host wall time spent
	// characterizing (or cache-loading) each workload.
	HistWorkloadWallSeconds = HistogramSpec{
		Name:    "workload.wall_seconds",
		Help:    "host wall seconds per workload characterization or cache load",
		Buckets: []float64{1e-3, 1e-2, 0.1, 0.5, 1, 5, 30},
	}
	// HistKernelL1HitRate distributes per-kernel L1 hit rates.
	HistKernelL1HitRate = HistogramSpec{
		Name:    "kernel.l1_hit_rate",
		Help:    "L1 cache hit rate per kernel profile",
		Buckets: []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99},
	}
	// HistKernelL2HitRate distributes per-kernel L2 hit rates.
	HistKernelL2HitRate = HistogramSpec{
		Name:    "kernel.l2_hit_rate",
		Help:    "L2 cache hit rate per kernel profile",
		Buckets: []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99},
	}
	// HistServeRequestSeconds distributes end-to-end request latency in the
	// characterization server, LRU hits and cold studies alike.
	HistServeRequestSeconds = HistogramSpec{
		Name:    "serve.request_seconds",
		Help:    "end-to-end latency per served API request",
		Buckets: []float64{1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 5, 30},
	}
)

// Histogram is one concurrency-safe fixed-bucket histogram. A nil
// *Histogram is a valid no-op receiver, mirroring Counters.
type Histogram struct {
	spec HistogramSpec

	mu     sync.Mutex
	counts []int64 // guarded by mu; per finite bucket; +Inf remainder is count - Σ counts
	sum    float64 // guarded by mu
	count  int64   // guarded by mu
}

// Observe records one value. NaN observations are dropped — a NaN would
// poison the sum without being assignable to any bucket.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	for i, le := range h.spec.Buckets {
		if v <= le {
			h.counts[i]++
			break
		}
	}
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// BucketCount is one finite histogram bucket in a snapshot: Count is
// cumulative (observations <= LE), Prometheus-style.
type BucketCount struct {
	LE    float64
	Count int64
}

// HistogramSnapshot is one histogram's frozen state. Count covers every
// observation including those above the last finite bucket.
type HistogramSnapshot struct {
	Name    string
	Help    string
	Buckets []BucketCount
	Sum     float64
	Count   int64
}

func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Name: h.spec.Name, Help: h.spec.Help, Sum: h.sum, Count: h.count}
	var cum int64
	for i, le := range h.spec.Buckets {
		cum += h.counts[i]
		s.Buckets = append(s.Buckets, BucketCount{LE: le, Count: cum})
	}
	return s
}

// MetricsSnapshot is a Registry frozen at one instant: sorted counters and
// sorted histograms.
type MetricsSnapshot struct {
	Counters   []CounterValue
	Histograms []HistogramSnapshot
}

// Registry unifies a Counters registry with named histograms behind one
// snapshot path. A nil *Registry is a valid no-op receiver.
type Registry struct {
	ctr *Counters

	mu    sync.RWMutex
	hists map[string]*Histogram // guarded by mu; the histograms self-lock
}

// NewRegistry returns a registry with a fresh counters set.
func NewRegistry() *Registry { return NewRegistryWith(NewCounters()) }

// NewRegistryWith wraps an existing counters registry, so code holding a
// *Counters and code holding the *Registry observe into the same state.
func NewRegistryWith(ctr *Counters) *Registry {
	return &Registry{ctr: ctr, hists: make(map[string]*Histogram)}
}

// Counters returns the underlying counters registry (nil-safe).
func (r *Registry) Counters() *Counters {
	if r == nil {
		return nil
	}
	return r.ctr
}

// Histogram returns the registered histogram for spec, creating it on
// first use. Respecifying an existing name returns the original histogram
// (the first spec wins). A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(spec HistogramSpec) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h, ok := r.hists[spec.Name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[spec.Name]; ok {
		return h
	}
	h = &Histogram{spec: spec, counts: make([]int64, len(spec.Buckets))}
	r.hists[spec.Name] = h
	return h
}

// Snapshot freezes the whole registry: counters sorted by name (from
// Counters.Snapshot) and histograms sorted by name — a deterministic
// report for a deterministic run.
func (r *Registry) Snapshot() MetricsSnapshot {
	if r == nil {
		return MetricsSnapshot{}
	}
	s := MetricsSnapshot{Counters: r.ctr.Snapshot()}
	r.mu.RLock()
	hs := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hs = append(hs, h)
	}
	r.mu.RUnlock()
	for _, h := range hs {
		s.Histograms = append(s.Histograms, h.snapshot())
	}
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): counters as gauges (some, like
// study.workers_busy, can decrease), histograms with cumulative
// `_bucket{le=...}` series plus `_sum` and `_count`. Metric names are the
// registry names with non-identifier runes mapped to '_' under a `cactus_`
// namespace prefix.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	bw := bufio.NewWriter(w)
	for _, cv := range s.Counters {
		name := promName(cv.Name)
		if _, err := fmt.Fprintf(bw, "# TYPE %s gauge\n%s %d\n", name, name, cv.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		name := promName(h.Name)
		if h.Help != "" {
			if _, err := fmt.Fprintf(bw, "# HELP %s %s\n", name, h.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(bw, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		for _, b := range h.Buckets {
			if _, err := fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", name, promFloat(b.LE), b.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
			name, h.Count, name, promFloat(h.Sum), name, h.Count); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// promName maps a dotted registry name into the Prometheus identifier
// space under the cactus_ namespace.
func promName(name string) string {
	out := make([]byte, 0, len(name)+7)
	out = append(out, "cactus_"...)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// promFloat formats a float for exposition output (shortest round-trip).
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
