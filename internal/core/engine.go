// Engine: the study pipeline as a reusable, concurrent library. NewStudy /
// NewStudyWith run one batch and exit — fine for the CLI, useless for a
// long-running server that must answer thousands of overlapping study
// requests. Engine gives the pipeline an explicit lifecycle (constructor,
// Shutdown with drain) and a global bounded worker pool shared by every
// concurrent caller. Every characterization runs on a fresh device
// (RunWorkload), so results are byte-identical to the one-shot path:
// devices are deterministic, and profiles are assembled in the caller's
// workload order.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/gpu"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// ErrEngineClosed is returned by Engine methods after Shutdown has begun.
var ErrEngineClosed = errors.New("core: engine is shut down")

// EngineOptions configures a study engine. The zero value means: one
// worker slot per CPU, no profile cache, telemetry off.
type EngineOptions struct {
	// Workers is the engine-wide cap on concurrent characterizations,
	// shared by every Study/Characterize call in flight. Zero or negative
	// selects runtime.NumCPU().
	Workers int
	// Cache, when non-nil, is the on-disk profile cache consulted before
	// simulating and updated after each miss.
	Cache *ProfileCache
	// Counters and Progress are the telemetry sinks of Characterize and
	// Study calls, as in StudyOptions. Both are optional and must be safe
	// for concurrent use.
	Counters *telemetry.Counters
	Progress func(WorkloadProgress)
}

// Engine is a long-lived, concurrency-safe study pipeline. Construct with
// NewEngine, issue any number of concurrent Study/StudyWith/Characterize
// calls, then Shutdown to drain. All methods are safe for concurrent use.
type Engine struct {
	opts EngineOptions
	// slots bounds concurrent characterizations engine-wide: every task —
	// whichever Study or Characterize call it belongs to — holds one slot
	// while probing the cache and simulating.
	slots chan struct{}

	mu     sync.Mutex
	closed bool // guarded by mu

	wg sync.WaitGroup // in-flight Study/Characterize calls (drained by Shutdown)
}

// NewEngine returns a ready engine. It never fails: device configurations
// are validated lazily, per call, exactly like the one-shot path.
func NewEngine(opts EngineOptions) *Engine {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	opts.Workers = workers
	return &Engine{opts: opts, slots: make(chan struct{}, workers)}
}

// Workers returns the engine-wide concurrent-characterization cap.
func (e *Engine) Workers() int { return e.opts.Workers }

// begin registers one in-flight call, failing once Shutdown has begun.
func (e *Engine) begin() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrEngineClosed
	}
	e.wg.Add(1)
	return nil
}

// acquire takes one global worker slot, honoring context cancellation.
func (e *Engine) acquire(ctx context.Context) error {
	select {
	case e.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (e *Engine) release() { <-e.slots }

// studyOptions are the engine defaults as one-shot study options.
func (e *Engine) studyOptions() StudyOptions {
	return StudyOptions{
		Workers:  e.opts.Workers,
		Cache:    e.opts.Cache,
		Counters: e.opts.Counters,
		Progress: e.opts.Progress,
	}
}

// Characterize produces one workload's profile on cfg using the engine's
// cache and telemetry on a fresh device, waiting for a worker slot first. It
// reports how the profile was obtained (cache hit, miss, corrupt entry, or
// CacheDisabled when the engine has no cache). The context gates slot
// acquisition and is checked before simulating; a simulation once started
// runs to completion so a drained engine never abandons simulator state.
func (e *Engine) Characterize(ctx context.Context, cfg gpu.DeviceConfig, w workloads.Workload) (*Profile, CacheOutcome, error) {
	if err := e.begin(); err != nil {
		return nil, CacheDisabled, err
	}
	defer e.wg.Done()
	if err := e.acquire(ctx); err != nil {
		return nil, CacheDisabled, err
	}
	defer e.release()
	if err := ctx.Err(); err != nil {
		return nil, CacheDisabled, err
	}
	p, outcome, err := characterizeCached(w, cfg, e.studyOptions(), 0, 0)
	if err != nil {
		return nil, CacheDisabled, err
	}
	return p, outcome, nil
}

// Study characterizes the given workloads on cfg with the engine's default
// options and returns the assembled study.
func (e *Engine) Study(ctx context.Context, cfg gpu.DeviceConfig, ws ...workloads.Workload) (*Study, error) {
	return e.StudyWith(ctx, cfg, e.studyOptions(), ws...)
}

// StudyWith characterizes the given workloads on cfg according to opts,
// exactly as the one-shot NewStudyWith would: opts is honored verbatim
// (including a nil Cache meaning "no cache" and per-study tracer,
// counters, and progress sinks), profiles land in the caller's workload
// order, and the output is byte-identical to a serial run. The engine
// contributes its global worker slots — opts.Workers study-local workers
// still fan out, but every characterization holds an engine slot while it
// runs, so concurrent studies share one bounded pool.
//
// The context gates slot acquisition and stops the feed between workloads;
// characterizations already started run to completion before StudyWith
// returns, so cancellation never leaks work past the return.
func (e *Engine) StudyWith(ctx context.Context, cfg gpu.DeviceConfig, opts StudyOptions, ws ...workloads.Workload) (*Study, error) {
	if err := e.begin(); err != nil {
		return nil, err
	}
	defer e.wg.Done()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(ws) {
		workers = len(ws)
	}
	profiles := make([]*Profile, len(ws))
	if err := e.characterizeAll(ctx, profiles, ws, cfg, opts, workers); err != nil {
		return nil, err
	}
	st := &Study{Device: cfg, byAbbr: make(map[string]*Profile, len(ws))}
	for _, p := range profiles {
		st.Profiles = append(st.Profiles, p)
		st.byAbbr[p.Abbr()] = p
	}
	return st, nil
}

// characterizeAll fans the workloads out over a fixed study-local worker
// pool, writing each profile into its workload's slot so order is
// preserved. The first error (or context cancellation) stops the feed;
// in-flight characterizations drain before return. Each worker owns one
// host-track telemetry lane; its per-task spans are the pool's lifecycle
// record, and CtrWorkersBusy gauges its occupancy. Every task additionally
// holds one engine-wide slot, so concurrent studies on one engine share
// the global Workers bound.
func (e *Engine) characterizeAll(ctx context.Context, profiles []*Profile, ws []workloads.Workload, cfg gpu.DeviceConfig, opts StudyOptions, workers int) error {
	var (
		wg       sync.WaitGroup
		once     sync.Once
		firstErr error
	)
	tr := telemetry.Or(opts.Tracer)
	// A one-worker pool has no occupancy to gauge; leaving the gauge
	// untouched keeps its counter dumps free of a constant zero.
	busy := opts.Counters
	if workers == 1 {
		busy = nil
	}
	idx := make(chan int)
	fail := make(chan struct{})
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			if tr.Enabled() {
				tr.Emit(telemetry.ThreadName(telemetry.TrackHost, worker,
					fmt.Sprintf("worker %d", worker)))
			}
			for i := range idx {
				if err := e.acquire(ctx); err != nil {
					once.Do(func() { firstErr = err; close(fail) })
					continue
				}
				busy.Add(telemetry.CtrWorkersBusy, 1)
				p, _, err := characterizeCached(ws[i], cfg, opts, i, worker)
				busy.Add(telemetry.CtrWorkersBusy, -1)
				e.release()
				if err != nil {
					once.Do(func() { firstErr = err; close(fail) })
					continue
				}
				profiles[i] = p
			}
		}(n)
	}
feed:
	for i := range ws {
		select {
		case idx <- i:
		case <-fail:
			break feed
		case <-ctx.Done():
			once.Do(func() { firstErr = ctx.Err(); close(fail) })
			break feed
		}
	}
	close(idx)
	wg.Wait()
	return firstErr
}

// Shutdown stops admitting new calls and waits for every in-flight
// Study/Characterize call to drain, or for ctx to expire. It is
// idempotent; after the first call every engine method fails with
// ErrEngineClosed.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
