package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter names used across the pipeline. Keeping them in one place makes
// the -v snapshot and the /metrics exposition self-describing.
const (
	// CtrLaunches counts kernel launches modeled by gpu.Device.Launch.
	CtrLaunches = "gpu.launches"
	// CtrWarpInstructions totals executed warp instructions across launches.
	CtrWarpInstructions = "gpu.warp_instructions"
	// CtrCacheHits counts profile-cache probes served from disk.
	CtrCacheHits = "cache.hits"
	// CtrCacheMisses counts probes that had to re-simulate (absent or
	// corrupt entries both count; corrupt ones additionally bump
	// CtrCacheCorrupt).
	CtrCacheMisses = "cache.misses"
	// CtrCacheCorrupt counts cache entries that existed but were unreadable
	// or mismatched.
	CtrCacheCorrupt = "cache.corrupt_entries"
	// CtrCacheStoreErrors counts failed cache writes. A store failure does
	// not fail the study; it is counted and reported instead.
	CtrCacheStoreErrors = "cache.store_errors"
	// CtrWorkersBusy is the number of pool workers currently characterizing
	// a workload (a gauge: incremented on task start, decremented on end).
	CtrWorkersBusy = "study.workers_busy"
	// CtrWorkloads counts workloads characterized (cache hits included).
	CtrWorkloads = "study.workloads_characterized"

	// Serve-layer counters: the characterization server's request funnel.
	// Requests either hit a complete entry of the server's profile table,
	// join a study in flight, or lead one; the funnel invariant the load
	// test pins is leaders + shared == lru_misses, with mismatches and
	// corruption at 0.

	// CtrServeRequests counts HTTP requests accepted by the API handlers
	// (rejected ones are counted under their rejection counter instead).
	CtrServeRequests = "serve.requests"
	// CtrServeRejectedQueue counts requests rejected with 429 because the
	// bounded work queue was full.
	CtrServeRejectedQueue = "serve.rejected_queue_full"
	// CtrServeRejectedShutdown counts requests rejected with 503 during
	// shutdown drain.
	CtrServeRejectedShutdown = "serve.rejected_shutdown"
	// CtrServeDeadlineExceeded counts requests that hit their per-request
	// deadline (504); the underlying study keeps running and lands in the
	// profile table for the next asker.
	CtrServeDeadlineExceeded = "serve.deadline_exceeded"
	// CtrServeLRUHits counts profile lookups served from a complete entry of
	// the in-memory profile table (its LRU).
	CtrServeLRUHits = "serve.lru_hits"
	// CtrServeLRUMisses counts lookups that found no complete entry and
	// joined or led a study in flight.
	CtrServeLRUMisses = "serve.lru_misses"
	// CtrServeLRUEvictions counts complete entries evicted past the table's
	// capacity.
	CtrServeLRUEvictions = "serve.lru_evictions"
	// CtrServeLRUMismatches counts complete entries whose recorded workload or
	// device fingerprint disagreed with the key that found them — cache
	// corruption that must never happen (the load test asserts zero).
	CtrServeLRUMismatches = "serve.lru_mismatches"
	// CtrServeFlightLeaders counts lookups that led a new study.
	CtrServeFlightLeaders = "serve.singleflight_leaders"
	// CtrServeFlightShared counts lookups that joined a study
	// another request already had in flight — the deduplication win.
	CtrServeFlightShared = "serve.singleflight_shared"
	// CtrServeWriteErrors counts response bodies that failed to reach the
	// client (connection reset mid-write, client hang-up). The response
	// cannot be retried — the client is gone — but a spike here is an
	// operational symptom worth alerting on, so it is counted, not dropped.
	CtrServeWriteErrors = "serve.write_errors"
)

// WorkloadModeledNs returns the counter name holding a workload's modeled
// GPU time in nanoseconds.
func WorkloadModeledNs(abbr string) string { return "workload." + abbr + ".modeled_ns" }

// WorkloadWallNs returns the counter name holding the host wall time spent
// characterizing (or cache-loading) a workload, in nanoseconds.
func WorkloadWallNs(abbr string) string { return "workload." + abbr + ".wall_ns" }

// Counters is a concurrency-safe registry of named int64 counters. The zero
// of a name springs into existence on first Add. A nil *Counters is a valid
// no-op receiver, so instrumented code never needs nil checks.
type Counters struct {
	mu sync.RWMutex
	m  map[string]*atomic.Int64 // guarded by mu; the values are atomic
}

// NewCounters returns an empty registry.
func NewCounters() *Counters { return &Counters{m: make(map[string]*atomic.Int64)} }

// Add increments (or with a negative delta, decrements) the named counter.
func (c *Counters) Add(name string, delta int64) {
	if c == nil {
		return
	}
	c.mu.RLock()
	v, ok := c.m[name]
	c.mu.RUnlock()
	if !ok {
		c.mu.Lock()
		if v, ok = c.m[name]; !ok {
			v = new(atomic.Int64)
			c.m[name] = v
		}
		c.mu.Unlock()
	}
	v.Add(delta)
}

// Get returns the named counter's value (0 if never touched).
func (c *Counters) Get(name string) int64 {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if v, ok := c.m[name]; ok {
		return v.Load()
	}
	return 0
}

// CounterValue is one snapshotted counter.
type CounterValue struct {
	Name  string
	Value int64
}

// Snapshot returns all counters sorted by name — a deterministic report for
// a deterministic run.
func (c *Counters) Snapshot() []CounterValue {
	if c == nil {
		return nil
	}
	c.mu.RLock()
	out := make([]CounterValue, 0, len(c.m))
	for name, v := range c.m {
		out = append(out, CounterValue{Name: name, Value: v.Load()})
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteText writes the snapshot as "name value" lines, the names padded to
// the longest one — the -v counters report.
func (c *Counters) WriteText(w io.Writer) error {
	snap := c.Snapshot()
	width := 0
	for _, cv := range snap {
		width = max(width, len(cv.Name))
	}
	bw := bufio.NewWriter(w)
	for _, cv := range snap {
		if _, err := fmt.Fprintf(bw, "%-*s %d\n", width, cv.Name, cv.Value); err != nil {
			return err
		}
	}
	return bw.Flush()
}
