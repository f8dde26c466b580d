// Package server implements `cactus serve`: the paper's top-down
// characterization methodology as a long-running HTTP/JSON service.
// Clients query per-kernel profiles, roofline placements, cross-device
// comparisons, and bottleneck-attribution trees for any workload × device
// combination; the server answers from a sharded in-memory LRU in front of
// the on-disk profile cache, collapses concurrent identical studies with
// singleflight, and bounds cold characterizations across all requests
// with a fixed number of worker slots.
//
// Degradation is explicit: a bounded admission queue rejects overload with
// 429, per-request deadlines return 504 (the underlying study keeps
// running and lands in the LRU for the next asker), and shutdown drains
// in-flight requests and the studies they started while rejecting new
// ones with 503. Every request flows into the telemetry registry — request
// counters, LRU and singleflight funnel counters, and a latency histogram
// — served back out at /metrics through the same snapshot path the CLI
// uses.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// Options configures a Server. The zero value serves the default catalog
// on the stock devices with per-CPU workers and no on-disk cache.
type Options struct {
	// Devices maps device names accepted in the ?device= parameter to
	// their configurations. Nil selects the stock rtx3080 + gtx1080 pair.
	Devices map[string]gpu.DeviceConfig
	// Catalog is the servable workload set. Nil selects core.DefaultCatalog.
	Catalog *workloads.Catalog
	// Workers caps concurrent characterizations across all requests.
	// Zero selects runtime.NumCPU().
	Workers int
	// Cache, when non-nil, is the on-disk profile cache behind the LRU.
	Cache *core.ProfileCache
	// LRUEntries is the in-memory profile cache capacity (default 512
	// entries, spread over lruShards shards).
	LRUEntries int
	// MaxInFlight bounds the admitted work queue: requests beyond this
	// many concurrently in flight are rejected with 429 (default 256).
	MaxInFlight int
	// Timeout is the per-request deadline; a request that exceeds it gets
	// 504 while its study completes in the background (default 60s).
	Timeout time.Duration
	// Registry receives the server's counters and histograms. Nil builds a
	// fresh registry; pass one to share a snapshot path with the CLI's
	// -metrics / -pprof surfaces.
	Registry *telemetry.Registry
}

const (
	// lruShards is the LRU shard count.
	lruShards = 16
	// maxBatch caps the query count of one POST /api/v1/batch request.
	maxBatch = 256
)

// Server is the characterization service. Construct with New, mount
// Handler on any http.Server, and Shutdown to drain. Safe for concurrent
// use by its nature.
type Server struct {
	opts    Options
	cat     *workloads.Catalog
	devices map[string]gpu.DeviceConfig
	devFPs  map[string]string // device name -> core.Fingerprint
	study   core.StudyOptions // cache and telemetry of every characterization
	slots   chan struct{}     // one per concurrent cold characterization
	reg     *telemetry.Registry
	ctr     *telemetry.Counters
	latency *telemetry.Histogram
	lru     *shardedLRU
	flight  *flightGroup
	queue   chan struct{} // admission tokens; full queue = 429
	mux     *http.ServeMux

	mu       sync.Mutex
	closed   bool           // guarded by mu
	inflight sync.WaitGroup // Add under mu in enter(); Done/Wait are WaitGroup-synchronized
}

// New builds a ready server; callers must Shutdown it when done.
func New(opts Options) (*Server, error) {
	if opts.Devices == nil {
		opts.Devices = map[string]gpu.DeviceConfig{
			"rtx3080": gpu.RTX3080(),
			"gtx1080": gpu.GTX1080(),
		}
	}
	if opts.Catalog == nil {
		cat, err := core.DefaultCatalog()
		if err != nil {
			return nil, err
		}
		opts.Catalog = cat
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.NumCPU()
	}
	if opts.LRUEntries <= 0 {
		opts.LRUEntries = 512
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = 256
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 60 * time.Second
	}
	if opts.Registry == nil {
		opts.Registry = telemetry.NewRegistry()
	}
	devFPs := make(map[string]string, len(opts.Devices))
	for name, cfg := range opts.Devices {
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("server: device %q: %w", name, err)
		}
		devFPs[name] = core.Fingerprint(cfg)
	}
	s := &Server{
		opts:    opts,
		cat:     opts.Catalog,
		devices: opts.Devices,
		devFPs:  devFPs,
		reg:     opts.Registry,
		ctr:     opts.Registry.Counters(),
		latency: opts.Registry.Histogram(telemetry.HistServeRequestSeconds),
		slots:   make(chan struct{}, opts.Workers),
		lru:     newShardedLRU(opts.LRUEntries, lruShards),
		flight:  newFlightGroup(),
		queue:   make(chan struct{}, opts.MaxInFlight),
	}
	s.study = core.StudyOptions{
		Cache:    opts.Cache,
		Counters: s.ctr,
		Progress: core.ObserveMetrics(s.reg),
	}
	s.mux = s.buildMux()
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the server's metrics registry (the /metrics source).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// deviceNames returns the accepted ?device= values, sorted.
func (s *Server) deviceNames() []string {
	names := make([]string, 0, len(s.devices))
	for name := range s.devices {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// enter admits one request unless shutdown has begun.
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.inflight.Add(1)
	return true
}

func (s *Server) exit() { s.inflight.Done() }

// Shutdown stops admitting requests (new ones get 503), waits for
// in-flight requests to drain, then for the singleflight leaders they
// started — a 504'd request's study included — to land in the LRU.
// Idempotent. Only admitted requests start leaders, so once the requests
// have drained no leader can start.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		s.flight.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// profileKey is the LRU and singleflight key for one (workload, device)
// pair: the abbreviation joined with the full device-configuration
// fingerprint, so two devices — or two revisions of one device — can
// never alias.
func profileKey(abbr, fingerprint string) string { return abbr + "@" + fingerprint }

// profileFor resolves one workload's profile on one device through the
// read path the whole API shares: sharded LRU, then singleflight, then a
// worker slot and core.CharacterizeWith (which consults the on-disk cache
// before simulating). The context only gates how long this caller waits —
// a deadline that expires mid-study abandons the wait, not the study.
func (s *Server) profileFor(ctx context.Context, w workloads.Workload, devName string) (*core.Profile, error) {
	abbr := w.Abbr()
	fp := s.devFPs[devName]
	key := profileKey(abbr, fp)
	if e, ok := s.lru.get(key); ok {
		if e.abbr != abbr || e.fingerprint != fp {
			// Never serve a profile whose identity disagrees with the key
			// that found it: count the corruption and recompute.
			s.ctr.Add(telemetry.CtrServeLRUMismatches, 1)
		} else {
			s.ctr.Add(telemetry.CtrServeLRUHits, 1)
			return e.profile, nil
		}
	}
	s.ctr.Add(telemetry.CtrServeLRUMisses, 1)
	cfg := s.devices[devName]
	c, leader := s.flight.do(key, func() (*core.Profile, error) {
		// Double-check the LRU: a caller that missed it just before the
		// previous flight for this key completed becomes a redundant leader;
		// without this it would re-run the whole study.
		if e, ok := s.lru.get(key); ok && e.abbr == abbr && e.fingerprint == fp {
			return e.profile, nil
		}
		// Detached from the request context: the study belongs to every
		// current and future asker of this key, not to the first one.
		s.slots <- struct{}{}
		p, _, err := core.CharacterizeWith(w, cfg, s.study, 0, 0)
		<-s.slots
		if err != nil {
			return nil, err
		}
		evicted := s.lru.add(key, profileEntry{abbr: abbr, fingerprint: fp, profile: p})
		s.ctr.Add(telemetry.CtrServeLRUEvictions, int64(evicted))
		return p, nil
	})
	if leader {
		s.ctr.Add(telemetry.CtrServeFlightLeaders, 1)
	} else {
		s.ctr.Add(telemetry.CtrServeFlightShared, 1)
	}
	select {
	case <-c.done:
		return c.p, c.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// studyFor assembles single-profile studies for the comparison path.
func (s *Server) studyFor(ctx context.Context, ws []workloads.Workload, devName string) (*core.Study, error) {
	st := &core.Study{Device: s.devices[devName]}
	for _, w := range ws {
		p, err := s.profileFor(ctx, w, devName)
		if err != nil {
			return nil, err
		}
		st.Add(p)
	}
	return st, nil
}

// errStatus maps an internal error to its HTTP status.
func errStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; 499 is the de-facto convention.
		return 499
	}
	return http.StatusInternalServerError
}
