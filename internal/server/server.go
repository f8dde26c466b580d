// Package server implements `cactus serve`: the paper's top-down
// characterization methodology as a long-running HTTP/JSON service.
// Clients query per-kernel profiles, roofline placements, cross-device
// comparisons, and bottleneck-attribution trees for any workload × device
// combination; the server answers from one in-memory profile table — an
// exact LRU of complete profiles that also holds the studies in flight, so
// concurrent identical requests share one study — in front of the on-disk
// profile cache, and bounds cold characterizations across all requests
// with a fixed number of worker slots.
//
// Degradation is explicit: a bounded admission queue rejects overload with
// 429, per-request deadlines return 504 (the underlying study keeps
// running and lands in the table for the next asker), and shutdown drains
// in-flight requests and the studies they started while rejecting new
// ones with 503. Every request flows into the telemetry registry — request
// counters, LRU and flight funnel counters, and a latency histogram
// — served back out at /metrics through the same snapshot path the CLI
// uses.
package server

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// Options configures a Server. The zero value serves the default catalog
// with per-CPU workers and no on-disk cache.
type Options struct {
	// Catalog is the servable workload set. Nil selects core.DefaultCatalog.
	Catalog *workloads.Catalog
	// Workers caps concurrent characterizations across all requests.
	// Zero selects runtime.NumCPU().
	Workers int
	// Cache, when non-nil, is the on-disk profile cache behind the table.
	Cache *core.ProfileCache
	// LRUEntries is how many complete profiles the in-memory table keeps,
	// evicting the least recently used past it (default 512).
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

// maxBatch caps the query count of one POST /api/v1/batch request.
const maxBatch = 256

// devices maps the accepted ?device= values to the stock device models.
var devices = map[string]gpu.DeviceConfig{
	"rtx3080": gpu.RTX3080(),
	"gtx1080": gpu.GTX1080(),
}

// deviceNames lists the keys of devices, sorted.
var deviceNames = []string{"gtx1080", "rtx3080"}

// Server is the characterization service. Construct with New, mount
// Handler on any http.Server, and Shutdown to drain. Safe for concurrent
// use by its nature.
type Server struct {
	opts    Options
	cat     *workloads.Catalog
	devFPs  map[string]string // device name -> core.Fingerprint
	study   core.StudyOptions // cache and telemetry of every characterization
	slots   chan struct{}     // one per concurrent cold characterization
	reg     *telemetry.Registry
	ctr     *telemetry.Counters
	latency *telemetry.Histogram
	table   *profileTable
	queue   chan struct{} // admission tokens; full queue = 429
	mux     *http.ServeMux

	mu       sync.Mutex
	closed   bool           // guarded by mu
	inflight sync.WaitGroup // Add under mu in enter(); Done/Wait are WaitGroup-synchronized
}

// New builds a ready server; callers must Shutdown it when done.
func New(opts Options) (*Server, error) {
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
	devFPs := make(map[string]string, len(devices))
	for name, cfg := range devices {
		devFPs[name] = core.Fingerprint(cfg)
	}
	ctr := opts.Registry.Counters()
	s := &Server{
		opts:    opts,
		cat:     opts.Catalog,
		devFPs:  devFPs,
		reg:     opts.Registry,
		ctr:     ctr,
		latency: opts.Registry.Histogram(telemetry.HistServeRequestSeconds),
		slots:   make(chan struct{}, opts.Workers),
		table:   newProfileTable(opts.LRUEntries, ctr),
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
// in-flight requests to drain, then for the studies they started — a
// 504'd request's study included — to land in the table.
// Idempotent. Only admitted requests start leaders, so once the requests
// have drained no leader can start.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		s.table.leaders.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// profileKey is the profile table's key for one (workload, device) pair:
// the abbreviation joined with the full device-configuration fingerprint,
// so two devices — or two revisions of one device — can never alias.
func profileKey(abbr, fingerprint string) string { return abbr + "@" + fingerprint }

// profileFor resolves one workload's profile on one device through the
// read path the whole API shares: one profile-table lookup, then — for the
// caller that leads a new entry — a worker slot and core.CharacterizeWith
// (which consults the on-disk cache before simulating). The context only
// gates how long this caller waits: a deadline that expires mid-study
// abandons the wait, not the study.
func (s *Server) profileFor(ctx context.Context, w workloads.Workload, devName string) (*core.Profile, error) {
	abbr, fp := w.Abbr(), s.devFPs[devName]
	e, o := s.table.lookup(profileKey(abbr, fp), abbr, fp)
	switch o {
	case hit:
		return e.profile, nil
	case lead:
		cfg := devices[devName]
		// Detached from the request context: the study belongs to every
		// current and future asker of this key, not to the first one.
		// Server.Shutdown waits for it through the table's leaders.
		go func() {
			s.slots <- struct{}{}
			p, _, err := core.CharacterizeWith(w, cfg, s.study, 0, 0)
			<-s.slots
			s.table.finish(e, p, err)
		}()
	}
	select {
	case <-e.done:
		return e.profile, e.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// studyFor assembles single-profile studies for the comparison path.
func (s *Server) studyFor(ctx context.Context, ws []workloads.Workload, devName string) (*core.Study, error) {
	st := &core.Study{Device: devices[devName]}
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
