package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/profiler"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// The traced run records host-track spans in memory around the calls it
// makes into each layer, together with the spans the program already emits
// when handed a tracer: core's per-workload characterize spans and cache
// instants (on the study worker lanes 0..workers-1) and gpu.Device.Launch
// spans. The events are written out as a Chrome trace when the run ends.
const (
	nestedLane = 99  // spans inside characterize spans, joined by workload
	mainLane   = 100 // the goroutine driving a study
	clientLane = 200 // serve_mix client i is lane clientLane+i

	// slack is how much of a lane's wall the spans on it may leave
	// uncovered before the accounting check fails.
	slack = 0.05
)

// spanRec records spans; a nil *spanRec records nothing, which is how the
// untraced runs call the same code.
type spanRec struct{ rec *telemetry.Recorder }

func newSpanRec() *spanRec { return &spanRec{rec: telemetry.NewRecorder()} }

// tracer returns the sink to hand to the program, or nil when off.
func (s *spanRec) tracer() telemetry.Tracer {
	if s == nil {
		return nil
	}
	return s.rec
}

// span runs f and records it as one host-track span.
func (s *spanRec) span(lane int, cat, name string, args map[string]any, f func() error) error {
	if s == nil {
		return f()
	}
	start := telemetry.Now()
	err := f()
	s.rec.Emit(telemetry.Event{
		Track: telemetry.TrackHost, Phase: telemetry.PhaseSpan,
		Cat: cat, Name: name, TID: lane,
		Start: start, Dur: telemetry.Now() - start, Args: args,
	})
	return err
}

// write saves the recorded events as a Chrome trace under dir.
func (s *spanRec) write(dir, name string, errOut io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	events := s.rec.Events()
	if err := telemetry.WriteChrome(f, events); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(errOut, "hostbench: wrote %d trace events to %s\n", len(events), path)
	return nil
}

// tracedWorkload wraps a workload so its Run is one span and its launches
// carry the workload's name. A study given a tracer builds a fresh device
// per characterization, so re-pointing that device's telemetry before the
// first launch races with nothing. After Run it times Session.Kernels, the
// profiler's aggregation, on the same session; core then aggregates once
// more itself, which the tracing overhead includes.
type tracedWorkload struct {
	workloads.Workload
	spans *spanRec
}

func (w tracedWorkload) Run(s *profiler.Session) error {
	abbr := w.Abbr()
	s.Device().SetTelemetry(tagger{rec: w.spans.rec, abbr: abbr}, nil)
	args := map[string]any{"workload": abbr}
	if err := w.spans.span(nestedLane, "run", abbr, args, func() error { return w.Workload.Run(s) }); err != nil {
		return err
	}
	return w.spans.span(nestedLane, "aggregate", abbr, args, func() error {
		_ = s.Kernels()
		return nil
	})
}

// traceAll wraps every workload for a traced study.
func traceAll(ws []workloads.Workload, spans *spanRec) []workloads.Workload {
	out := make([]workloads.Workload, len(ws))
	for i, w := range ws {
		out[i] = tracedWorkload{Workload: w, spans: spans}
	}
	return out
}

// tagger forwards a device's launch spans, naming the workload in each.
type tagger struct {
	rec  *telemetry.Recorder
	abbr string
}

func (t tagger) Enabled() bool { return true }

func (t tagger) Emit(ev telemetry.Event) {
	if ev.Args == nil {
		ev.Args = map[string]any{}
	}
	ev.Args["workload"] = t.abbr
	t.rec.Emit(ev)
}

// layerTimes is seconds per layer over some set of lanes.
type layerTimes map[string]float64

func (l layerTimes) total() float64 {
	var s float64
	for _, v := range l {
		s += v
	}
	return s
}

// print writes the layers as shares of base seconds, largest first.
func (l layerTimes) print(w io.Writer, title string, base float64) {
	fmt.Fprintf(w, "hostbench: %s (%.4f s of lane time)\n", title, base)
	names := make([]string, 0, len(l))
	for n := range l {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if l[names[i]] != l[names[j]] {
			return l[names[i]] > l[names[j]]
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		fmt.Fprintf(w, "hostbench:   %-28s %10.4f s  %6.2f%%\n", n, l[n], 100*l[n]/base)
	}
}

// studySplit is the per-layer account of one traced study: each workload's
// characterize span split into the layers under it.
type studySplit struct {
	wall     float64 // the study call's wall time
	workers  int
	layers   layerTimes
	hostS    map[string]float64 // characterize seconds per workload
	launches int
	launchS  float64
	aggS     float64
	probes   int
	hits     int
	probeS   float64
	busy     float64 // summed characterize seconds
	// coverage is the share of the wall covered by characterize spans on
	// the lane that covers most: the critical path of the study.
	coverage float64
}

// hostEvents returns the host-track events whose start lies in [t0, t1].
func hostEvents(events []telemetry.Event, t0, t1 float64) []telemetry.Event {
	var out []telemetry.Event
	for _, ev := range events {
		if ev.Track == telemetry.TrackHost && ev.Start >= t0 && ev.Start <= t1 {
			out = append(out, ev)
		}
	}
	return out
}

func argString(ev telemetry.Event, key string) string {
	s, _ := ev.Args[key].(string)
	return s
}

// splitStudy accounts one traced study that ran in [t0, t1] on workers
// lanes. Per workload: compute is the Run span minus its launch spans,
// the probe is core's characterize start to its cache instant, and
// engine.other is what the characterize span holds beyond probe, Run and
// aggregation: device construction, core's own aggregation, the cache
// store and bookkeeping. Lane time no characterize span covers is idle.
func splitStudy(events []telemetry.Event, t0, t1 float64, workers int, cat *workloads.Catalog) studySplit {
	sp := studySplit{wall: t1 - t0, workers: workers, layers: layerTimes{}, hostS: map[string]float64{}}
	charStart := map[string]float64{}
	run := map[string]float64{}
	launch := map[string]float64{}
	agg := map[string]float64{}
	probe := map[string]float64{}
	lanes := map[int]float64{}
	evs := hostEvents(events, t0, t1)
	for _, ev := range evs {
		if ev.Cat == "characterize" && ev.Phase == telemetry.PhaseSpan {
			sp.hostS[ev.Name] += ev.Dur
			charStart[ev.Name] = ev.Start
			lanes[ev.TID] += ev.Dur
			sp.busy += ev.Dur
		}
	}
	for _, ev := range evs {
		w := argString(ev, "workload")
		switch {
		case ev.Cat == "cache" && ev.Phase == telemetry.PhaseInstant:
			if start, ok := charStart[w]; ok {
				probe[w] += ev.Start - start
			}
			sp.probes++
			if ev.Name == "cache hit" {
				sp.hits++
			}
		case ev.Cat == "run":
			run[ev.Name] += ev.Dur
		case ev.Cat == "aggregate":
			agg[ev.Name] += ev.Dur
		case ev.Cat == "launch":
			launch[w] += ev.Dur
			sp.launches++
		}
	}
	for abbr, host := range sp.hostS {
		class := "compute.baseline"
		if w, err := cat.Lookup(abbr); err == nil {
			class = computeClass(w)
		}
		sp.layers[class] += run[abbr] - launch[abbr]
		sp.layers["gpu.launch"] += launch[abbr]
		sp.layers["profiler.aggregate"] += agg[abbr]
		sp.layers["cache.probe"] += probe[abbr]
		sp.layers["engine.other"] += host - probe[abbr] - run[abbr] - agg[abbr]
		sp.launchS += launch[abbr]
		sp.aggS += agg[abbr]
		sp.probeS += probe[abbr]
	}
	sp.layers["idle"] = float64(workers)*sp.wall - sp.busy
	for _, covered := range lanes {
		sp.coverage = max(sp.coverage, covered/sp.wall)
	}
	return sp
}

// computeClass names the compute layer a workload's functional code is in.
func computeClass(w workloads.Workload) string {
	if w.Suite() != workloads.Cactus {
		return "compute.baseline"
	}
	switch w.Domain() {
	case workloads.Molecular:
		return "compute.md"
	case workloads.Graph:
		return "compute.graph"
	}
	return "compute.ml"
}

// laneCover sums the top-level spans recorded on lane in [t0, t1], by
// category, and returns them with the share of the window they cover.
func laneCover(events []telemetry.Event, lane int, t0, t1 float64) (layerTimes, float64) {
	l := layerTimes{}
	for _, ev := range hostEvents(events, t0, t1) {
		if ev.TID == lane && ev.Phase == telemetry.PhaseSpan {
			l[ev.Cat] += ev.Dur
		}
	}
	return l, l.total() / (t1 - t0)
}

// putStudyLayers fills the per-layer metrics a traced study yields.
func putStudyLayers(v map[string]float64, sp studySplit) {
	v["compute.ml_s"] += sp.layers["compute.ml"]
	v["compute.md_s"] += sp.layers["compute.md"]
	v["compute.graph_s"] += sp.layers["compute.graph"]
	v["compute.baseline_s"] += sp.layers["compute.baseline"]
	for abbr, s := range sp.hostS {
		if isCactusAbbr(abbr) {
			v["workload."+abbr+".host_s"] += s
		}
	}
	v["gpu.launch_s"] += sp.launchS
	v["gpu.launches"] += float64(sp.launches)
	if v["gpu.launches"] > 0 {
		v["gpu.launch_us"] = 1e6 * v["gpu.launch_s"] / v["gpu.launches"]
	}
	v["profiler.aggregate_s"] += sp.aggS
	v["cache.probe_s"] += sp.probeS
	v["cache.probes"] += float64(sp.probes)
	v["cache.hits"] += float64(sp.hits)
}

// isCactusAbbr reports whether abbr has a workload.<abbr>.host_s metric.
func isCactusAbbr(abbr string) bool {
	for _, d := range perLayer {
		if d.name == "workload."+abbr+".host_s" {
			return true
		}
	}
	return false
}

// checkCoverage records the accounting check: the spans on a lane must
// cover its wall within slack. It returns the uncovered share.
func checkCoverage(ops *tally, what string, coverage float64) float64 {
	ops.check(coverage >= 1-slack && coverage <= 1+1e-6,
		"accounting: %s spans cover %.2f%% of the wall, want within %.0f%%", what, 100*coverage, 100*slack)
	return 1 - coverage
}
