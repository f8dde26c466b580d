package telemetry

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNopTracer(t *testing.T) {
	if Nop.Enabled() {
		t.Error("Nop.Enabled() = true, want false")
	}
	Nop.Emit(Event{Name: "dropped"}) // must not panic
	if got := Or(nil); got != Nop {
		t.Errorf("Or(nil) = %v, want Nop", got)
	}
	rec := NewRecorder()
	if got := Or(rec); got != Tracer(rec) {
		t.Errorf("Or(rec) = %v, want rec", got)
	}
}

func TestRecorder(t *testing.T) {
	rec := NewRecorder()
	if !rec.Enabled() {
		t.Fatal("Recorder.Enabled() = false")
	}
	rec.Emit(Event{Name: "a"})
	rec.Emit(Event{Name: "b"})
	if rec.Len() != 2 {
		t.Fatalf("Len = %d, want 2", rec.Len())
	}
	evs := rec.Events()
	if evs[0].Name != "a" || evs[1].Name != "b" {
		t.Errorf("events out of order: %v", evs)
	}
	// Events must be a copy, not an alias.
	evs[0].Name = "mutated"
	if rec.Events()[0].Name != "a" {
		t.Error("Events() aliases the internal buffer")
	}
}

// TestConcurrentSinkWrites hammers a shared Recorder and Counters from many
// goroutines — the pooled-worker pattern — and is the -race regression for
// concurrent sink writes.
func TestConcurrentSinkWrites(t *testing.T) {
	rec := NewRecorder()
	ctr := NewCounters()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rec.Emit(Event{
					Track: TrackHost, Phase: PhaseSpan, TID: w,
					Name: fmt.Sprintf("task-%d", i), Start: float64(i), Dur: 1,
				})
				ctr.Add(CtrLaunches, 1)
				ctr.Add(WorkloadWallNs(fmt.Sprintf("W%d", w)), int64(i))
				if i%100 == 0 {
					_ = rec.Events()
					_ = ctr.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if rec.Len() != workers*per {
		t.Errorf("recorded %d events, want %d", rec.Len(), workers*per)
	}
	if got := ctr.Get(CtrLaunches); got != workers*per {
		t.Errorf("%s = %d, want %d", CtrLaunches, got, workers*per)
	}
}

func TestCountersSnapshotSortedAndDeterministic(t *testing.T) {
	ctr := NewCounters()
	ctr.Add("z.last", 3)
	ctr.Add("a.first", 1)
	ctr.Add("m.middle", -2)
	snap := ctr.Snapshot()
	want := []CounterValue{{"a.first", 1}, {"m.middle", -2}, {"z.last", 3}}
	if len(snap) != len(want) {
		t.Fatalf("snapshot has %d entries, want %d", len(snap), len(want))
	}
	for i := range want {
		if snap[i] != want[i] {
			t.Errorf("snapshot[%d] = %+v, want %+v", i, snap[i], want[i])
		}
	}
	var a, b bytes.Buffer
	if err := ctr.WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := ctr.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("WriteText is not deterministic")
	}
	if !strings.Contains(a.String(), "a.first") {
		t.Errorf("text report missing counter: %q", a.String())
	}
}

func TestNilCountersAreNoOps(t *testing.T) {
	var c *Counters
	c.Add("x", 1) // must not panic
	if c.Get("x") != 0 {
		t.Error("nil Counters.Get != 0")
	}
	if c.Snapshot() != nil {
		t.Error("nil Counters.Snapshot != nil")
	}
}

func TestFinite(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{1.5, 1.5},
		{0, 0},
		{math.Inf(1), math.MaxFloat64},
		{math.Inf(-1), -math.MaxFloat64},
	}
	for _, c := range cases {
		if got := Finite(c.in); got != c.want {
			t.Errorf("Finite(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if got := Finite(math.NaN()); got != 0 {
		t.Errorf("Finite(NaN) = %v, want 0", got)
	}
}

func TestWriteChromeValidSortedFinite(t *testing.T) {
	events := []Event{
		// Emitted deliberately out of order and with non-finite args.
		{Track: TrackHost, Phase: PhaseSpan, Name: "late", Start: 5, Dur: 1},
		{Track: TrackModeled, Phase: PhaseSpan, Name: "k2", Cat: "kernel",
			Start: 2, Dur: 1, Args: map[string]any{"ii": math.Inf(1)}},
		{Track: TrackModeled, Phase: PhaseSpan, Name: "k1", Cat: "kernel",
			Start: 0, Dur: 2, Args: map[string]any{"nan": math.NaN()}},
		ThreadName(TrackModeled, 0, "WL"),
		{Track: TrackHost, Phase: PhaseInstant, Name: "probe", Start: 1},
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, events); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// 5 events + 2 process_name metadata.
	if len(tr.TraceEvents) != 7 {
		t.Fatalf("got %d events, want 7", len(tr.TraceEvents))
	}
	// Metadata first, then modeled track in start order.
	var names []string
	for _, ev := range tr.TraceEvents {
		names = append(names, ev.Name)
	}
	want := []string{"process_name", "process_name", "thread_name", "k1", "k2", "probe", "late"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("event order %v, want %v", names, want)
		}
	}
	for _, ev := range tr.TraceEvents {
		if ev.Name == "k2" {
			if ev.Args["ii"].(float64) != math.MaxFloat64 {
				t.Errorf("+Inf arg not clamped: %v", ev.Args["ii"])
			}
			if ev.TS != 2e6 || ev.Dur != 1e6 {
				t.Errorf("k2 ts/dur = %v/%v, want 2e6/1e6 us", ev.TS, ev.Dur)
			}
		}
		if ev.Name == "k1" && ev.Args["nan"].(float64) != 0 {
			t.Errorf("NaN arg not clamped: %v", ev.Args["nan"])
		}
	}

	// Track filtering: the modeled track alone drops host events.
	var modeled bytes.Buffer
	if err := WriteChrome(&modeled, events, TrackModeled); err != nil {
		t.Fatal(err)
	}
	tm, err := ReadChrome(bytes.NewReader(modeled.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range tm.TraceEvents {
		if ev.PID != 1 {
			t.Errorf("filtered trace contains pid %d event %q", ev.PID, ev.Name)
		}
	}
}

// TestWriteChromeDeterministic — identical event sets serialize to
// identical bytes regardless of emission interleaving.
func TestWriteChromeDeterministic(t *testing.T) {
	mk := func(perm []int) []byte {
		events := []Event{
			{Track: TrackModeled, Phase: PhaseSpan, Name: "a", Start: 0, Dur: 1},
			{Track: TrackModeled, Phase: PhaseSpan, Name: "b", Start: 1, Dur: 2},
			{Track: TrackHost, Phase: PhaseInstant, Name: "c", Start: 0.5},
		}
		shuffled := make([]Event, len(events))
		for i, j := range perm {
			shuffled[i] = events[j]
		}
		var buf bytes.Buffer
		if err := WriteChrome(&buf, shuffled); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := mk([]int{0, 1, 2})
	for _, perm := range [][]int{{2, 1, 0}, {1, 0, 2}, {2, 0, 1}} {
		if !bytes.Equal(base, mk(perm)) {
			t.Errorf("permutation %v serialized differently", perm)
		}
	}
}
