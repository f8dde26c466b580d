// Package telemetry is the pipeline's Nsight-Systems analogue. Where
// internal/profiler reproduces Nsight Compute's per-kernel metrics, this
// package makes the pipeline itself observable: a pluggable, concurrency-safe
// event sink records spans and instants — kernel launches with their modeled
// durations, workload characterization begin/end, cache probe outcomes,
// worker-pool task lifecycle — on two clocks (modeled GPU time and host wall
// time), exportable as Chrome trace-event JSON loadable in chrome://tracing
// or Perfetto. A counters registry accumulates pipeline totals (launches,
// warp instructions, cache hits/misses, worker occupancy) snapshotable as a
// sorted, deterministic report and exposed, with histograms, in the
// Prometheus text format.
//
// Instrumented code pays near-zero cost when tracing is disabled: the
// default Tracer is Nop, whose Enabled method reports false so callers skip
// building events entirely, and a nil *Counters receiver is a no-op.
package telemetry

import (
	"sync"
	"time"
)

// Track selects which clock an event's timestamps are recorded against.
type Track int

const (
	// TrackModeled is modeled GPU time: each profiling session lays its
	// kernel launches end to end from t=0 using modeled durations, so the
	// track is deterministic — identical runs produce identical timelines.
	TrackModeled Track = iota
	// TrackHost is host wall-clock time measured from the process telemetry
	// epoch; it shows what the pipeline (workers, cache, simulation) did.
	TrackHost
)

// String returns the track's display name.
func (t Track) String() string {
	switch t {
	case TrackModeled:
		return "modeled GPU time"
	case TrackHost:
		return "host wall time"
	}
	return "unknown track"
}

// Phase mirrors the Chrome trace-event phase of an event.
type Phase byte

const (
	// PhaseSpan is a complete event with a start and a duration ("X").
	PhaseSpan Phase = 'X'
	// PhaseInstant is a point-in-time event ("i").
	PhaseInstant Phase = 'i'
	// PhaseMeta carries track metadata such as thread names ("M").
	PhaseMeta Phase = 'M'
)

// Event is one recorded telemetry event. Start and Dur are in seconds on
// the event's track clock. TID is the lane within the track: the workload
// index on the modeled track, the worker index on the host track.
type Event struct {
	Track Track
	Phase Phase
	Name  string
	Cat   string
	TID   int
	Start float64
	Dur   float64
	Args  map[string]any
}

// Tracer is a concurrency-safe event sink. Emit may be called from any
// goroutine. Enabled lets instrumented code skip event construction when
// nothing is listening; implementations must return a constant.
type Tracer interface {
	Emit(Event)
	Enabled() bool
}

// nopTracer drops everything and reports disabled.
type nopTracer struct{}

func (nopTracer) Emit(Event)    {}
func (nopTracer) Enabled() bool { return false }

// Nop is the disabled tracer: Emit discards and Enabled reports false.
var Nop Tracer = nopTracer{}

// Or returns t, or Nop when t is nil, so instrumented structs can hold a
// never-nil tracer without burdening callers.
func Or(t Tracer) Tracer {
	if t == nil {
		return Nop
	}
	return t
}

// ThreadName builds the metadata event naming a track lane (Chrome's
// thread_name), e.g. the workload abbreviation on the modeled track.
func ThreadName(track Track, tid int, name string) Event {
	return Event{
		Track: track, Phase: PhaseMeta, Name: "thread_name", TID: tid,
		Args: map[string]any{"name": name},
	}
}

// epoch anchors the host-track clock at process start.
//
//lint:ignore nodeterminism the host track is wall time by definition; the modeled track stays deterministic
var epoch = time.Now()

// Now returns seconds since the process telemetry epoch — the timestamp
// base for TrackHost events.
//
//lint:ignore nodeterminism the host track is wall time by definition; the modeled track stays deterministic
func Now() float64 { return time.Since(epoch).Seconds() }

// recorderChunk is the number of events in each of a Recorder's chunks.
const recorderChunk = 256

// Recorder is an in-memory Tracer: it buffers events under a mutex for
// later export. Safe for concurrent use by pooled workers. Events sit in
// fixed-size chunks, so an Emit never copies the events before it.
type Recorder struct {
	mu     sync.Mutex
	chunks [][]Event // guarded by mu; every chunk but the last is full
	n      int       // guarded by mu; events recorded
}

// NewRecorder returns an empty recording sink.
func NewRecorder() *Recorder { return &Recorder{} }

// Emit appends ev to the buffer.
func (r *Recorder) Emit(ev Event) {
	r.mu.Lock()
	if r.n%recorderChunk == 0 {
		r.chunks = append(r.chunks, make([]Event, 0, recorderChunk))
	}
	last := len(r.chunks) - 1
	r.chunks[last] = append(r.chunks[last], ev)
	r.n++
	r.mu.Unlock()
}

// Enabled reports true: a Recorder always listens.
func (r *Recorder) Enabled() bool { return true }

// Events returns a copy of the recorded events in emission order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.n)
	for _, c := range r.chunks {
		out = append(out, c...)
	}
	return out
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}
