package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"sort"
)

// Finite clamps non-finite values so encoding/json — which rejects NaN and
// ±Inf with an error — can always marshal them: NaN becomes 0 and ±Inf
// becomes the largest finite float64 of the same sign. Every float that
// crosses a JSON export boundary in this repository goes through this clamp
// (or a domain-specific one like the profiler's one-transaction floor for
// instruction intensity).
func Finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}

// chromeEvent is one entry of the Chrome trace-event "JSON object format".
// Field order is fixed by the struct, and map args marshal with sorted keys,
// so a deterministic event stream serializes byte-identically.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// pid maps a track to its Chrome process id; each track renders as its own
// process group in chrome://tracing / Perfetto.
func pid(t Track) int { return int(t) + 1 }

// WriteChrome writes events as Chrome trace-event JSON, loadable in
// chrome://tracing or https://ui.perfetto.dev. Events are ordered
// deterministically — metadata first, then by (track, lane, start, duration,
// name, category) — timestamps convert to microseconds, and all float
// arguments are forced finite, so output bytes depend only on the recorded
// events, not on emission interleaving.
func WriteChrome(w io.Writer, events []Event) error {
	evs := append([]Event(nil), events...)
	present := map[Track]bool{}
	for _, ev := range events {
		present[ev.Track] = true
	}
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if am, bm := a.Phase == PhaseMeta, b.Phase == PhaseMeta; am != bm {
			return am
		}
		if a.Track != b.Track {
			return a.Track < b.Track
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Dur != b.Dur {
			return a.Dur < b.Dur
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Cat < b.Cat
	})

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(ce chromeEvent) error {
		data, err := json.Marshal(ce)
		if err != nil {
			return err
		}
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = bw.Write(data)
		return err
	}

	// Name each present track's process so the viewer labels the groups.
	for _, t := range []Track{TrackModeled, TrackHost} {
		if !present[t] {
			continue
		}
		if err := emit(chromeEvent{
			Name: "process_name", Ph: "M", PID: pid(t),
			Args: map[string]any{"name": t.String()},
		}); err != nil {
			return err
		}
	}
	for _, ev := range evs {
		ce := chromeEvent{
			Name: ev.Name,
			Cat:  ev.Cat,
			Ph:   string(rune(ev.Phase)),
			TS:   Finite(ev.Start * 1e6),
			PID:  pid(ev.Track),
			TID:  ev.TID,
			Args: finiteArgs(ev.Args),
		}
		switch ev.Phase {
		case PhaseSpan:
			dur := Finite(ev.Dur * 1e6)
			ce.Dur = &dur
		case PhaseInstant:
			ce.S = "t" // thread-scoped instant
		}
		if err := emit(ce); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// finiteArgs returns args with every float64 value clamped finite. Other
// value types pass through; nested maps are not used by this repository's
// instrumentation and are rejected at marshal time if introduced.
func finiteArgs(args map[string]any) map[string]any {
	if len(args) == 0 {
		return nil
	}
	out := make(map[string]any, len(args))
	for k, v := range args {
		if f, ok := v.(float64); ok {
			out[k] = Finite(f)
		} else {
			out[k] = v
		}
	}
	return out
}
