package main

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// studyProgress is the CLI's per-workload subscriber: it observes the
// workload in reg's histograms (-metrics, /metrics), then emits the -log
// events when logger is non-nil and the -v line when verbose, all on
// errOut. It is called from every study worker, so the writes to errOut
// hold a lock: the -v lines and the logger's records share that writer.
func studyProgress(reg *telemetry.Registry, logger *slog.Logger, verbose bool, errOut io.Writer) func(core.WorkloadProgress) {
	observe := core.ObserveMetrics(reg)
	var mu sync.Mutex
	return func(p core.WorkloadProgress) {
		observe(p)
		mu.Lock()
		defer mu.Unlock()
		abbr := p.Profile.Abbr()
		if logger != nil {
			if p.StoreErr != nil {
				logger.Warn("profile cache store failed", "workload", abbr, "error", p.StoreErr.Error())
			}
			logger.Info("workload characterized",
				"workload", abbr,
				"kernels", len(p.Profile.Kernels),
				"modeled_ms", p.Profile.TotalTime.Millis(),
				"wall_ms", float64(p.Wall.Nanoseconds())/1e6,
				"cache", p.Cache.String())
		}
		if verbose {
			if p.StoreErr != nil {
				fmt.Fprintf(errOut, "cactus: %s: cache store failed: %v\n", abbr, p.StoreErr)
			}
			fmt.Fprintf(errOut, "cactus: %s: %d kernels, modeled %.3f ms, wall %s, cache %s\n",
				abbr, len(p.Profile.Kernels), p.Profile.TotalTime.Millis(),
				p.Wall.Round(time.Millisecond), p.Cache)
		}
	}
}

// Live observability state behind the -pprof listener. The handlers render
// whatever registry and attribution tree the current command most recently
// produced, through the same snapshot path every offline format uses. The
// state is package-level (atomics, not locals) because the default
// net/http mux accepts only one registration per pattern while tests call
// run() many times per process — the Once keeps re-registration a no-op
// and the pointers let each run swap in its own state.
var (
	liveRegistry    atomic.Pointer[telemetry.Registry]
	liveAttribution atomic.Pointer[telemetry.AttributionNode]
	obsOnce         sync.Once
)

// registerObservability installs the introspection endpoints on the default
// mux, alongside the /debug/pprof/ and /debug/vars handlers net/http/pprof
// and expvar already registered:
//
//	/metrics            Prometheus text exposition of counters + histograms
//	/debug/counters     aligned text (or ?format=json) of the same snapshot
//	/debug/attribution  the latest study's attribution tree as JSON
//	                    (or ?format=text for the aligned rendering)
//
// A handler write error means the scraper hung up mid-response; it cannot
// be retried, so it is counted under serve.write_errors in the live
// registry (the next successful scrape reports it).
func registerObservability() {
	obsOnce.Do(func() {
		http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			countObsWriteError(liveRegistry.Load().WritePrometheus(w))
		})
		http.HandleFunc("/debug/counters", func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Query().Get("format") == "json" {
				w.Header().Set("Content-Type", "application/json")
				countObsWriteError(liveRegistry.Load().WriteJSON(w))
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			countObsWriteError(liveRegistry.Load().WriteText(w))
		})
		http.HandleFunc("/debug/attribution", func(w http.ResponseWriter, req *http.Request) {
			root := liveAttribution.Load()
			if req.URL.Query().Get("format") == "text" {
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				countObsWriteError(telemetry.WriteAttributionText(w, root, 0))
				return
			}
			w.Header().Set("Content-Type", "application/json")
			countObsWriteError(telemetry.WriteAttributionJSON(w, root))
		})
	})
}

// countObsWriteError records a failed observability-handler write in the
// live registry's counters (nil-safe on both sides).
func countObsWriteError(err error) {
	if err != nil {
		liveRegistry.Load().Counters().Add(telemetry.CtrServeWriteErrors, 1)
	}
}
