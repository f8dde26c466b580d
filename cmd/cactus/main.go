// Command cactus is the driver for the Cactus reproduction: it lists and
// runs workloads, prints per-kernel profiles, regenerates every figure and
// table of the paper on the device model, and exposes the pipeline's
// telemetry — launch timelines, study counters, and profiling endpoints.
//
// Usage:
//
//	cactus list
//	cactus device
//	cactus run <abbr> [...]
//	cactus profile <abbr>
//	cactus export <abbr> [file]
//	cactus trace <abbr> [file]
//	cactus compare <abbr> [...]
//	cactus explain [-json] [-launches] [-depth N] [abbr ...]
//	cactus lint [abbr ...]
//	cactus audit [abbr ...]
//	cactus figure <1..9>
//	cactus table <1..4>
//	cactus bench [run|check|scaling] [flags]
//	cactus serve [-addr HOST:PORT] [-lru N] [-max-inflight N] [-timeout D]
//	cactus all
//
// Flags:
//
//	-device rtx3080|gtx1080   device model (default rtx3080)
//	-clusters K               cluster count for figure 9 (default 6)
//	-j N                      concurrent characterization workers (default NumCPU)
//	-cache DIR                profile cache directory (default per-user cache dir)
//	-no-cache                 disable the on-disk profile cache
//	-trace FILE               write a Chrome trace of the whole study to FILE
//	-v                        per-workload progress and a counters snapshot on stderr
//	-metrics FILE             write a Prometheus text metrics snapshot to FILE at exit
//	-log text|json            structured per-workload logging (log/slog) on stderr
//	-pprof ADDR               serve pprof, /metrics, and /debug endpoints on ADDR
//
// `cactus explain` is the paper's top-down methodology as a live report: it
// characterizes the requested workloads (all by default) and renders the
// hierarchical attribution tree — study → workload → phase (all invocations
// of one kernel), with -launches down to individual launches — splitting
// every node's modeled time into DRAM-bound, compute-bound, latency-bound,
// and launch-overhead shares derived from the model's stall attribution.
// The shares provably sum to 1 at every node (checked on every invocation;
// violations exit nonzero). -json emits the tree as JSON.
//
// The -pprof listener serves, besides net/http/pprof at /debug/pprof/:
// /metrics (Prometheus text exposition of the study's counters and
// histograms, the format -metrics FILE writes) and /debug/attribution (the
// latest study's attribution tree as JSON, ?format=text for the aligned
// report).
//
// `cactus lint` statically audits every registered workload's kernel-spec
// stream against the device limits (Table II) without running the
// simulation: each workload executes against a device-less profiling
// session that records specs instead of pricing them, and every spec is
// checked for block sizes that are not warp multiples or exceed device
// limits, degenerate grids, register demand over the SM register file, and
// zero theoretical occupancy. Exit is nonzero on any violation. The
// code-level invariants are checked by `go test ./internal/lint`.
//
// `cactus audit` replays every registered workload's launches through the
// real timing model and audits each result for metric soundness
// (gpu.CheckResult): fractional metrics finite and within [0,1], stall
// shares summing to at most 1, instruction intensity and GIPS consistent
// with the instruction mix and modeled time, DRAM read throughput under
// the device peak, and per-kernel times adding up to the session total.
// Exit is nonzero on any violation.
//
// `cactus bench` times a fixed benchmark set (the serial and parallel study
// plus subsystem micro-benchmarks) with pinned iteration counts, best-of-N,
// and writes BENCH_<label>.json. `cactus bench check -baseline
// BENCH_baseline.json` re-measures (or reads -current) and exits nonzero
// when any benchmark is more than -threshold (default 15%) slower than the
// baseline — the CI perf gate. `cactus bench scaling` checks the parallel
// study is not slower than serial at -j 2 and -j 8.
//
// `cactus serve` runs the characterization pipeline as a long-running HTTP
// service (see internal/server): profiles, roofline placements, cross-device
// comparisons, and attribution trees for any workload × device combination,
// answered from one in-memory profile table: an exact LRU of complete
// profiles that also holds the studies in flight, so concurrent identical
// requests share one study. The global -j, -cache, and -metrics flags apply.
//
// Exit codes: 0 on success, 1 on a runtime failure, 2 on a usage error
// (unknown command or flag, wrong arity, out-of-range argument).
//
// `cactus trace <abbr>` records one workload's launch timeline as Chrome
// trace-event JSON (load it in chrome://tracing or https://ui.perfetto.dev):
// the modeled-GPU-time track lays kernels end to end using modeled
// durations, and the host track shows what the pipeline did. The -trace
// flag captures the same thing for every study command (run, figure, table,
// all), one modeled lane per workload plus one host lane per worker.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"strconv"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/profiler"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workloads"
)

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

// usageError marks a failure the user caused by invoking cactus wrong —
// unknown command or flag, wrong arity, out-of-range argument. It exits 2,
// distinguishing "you asked wrong" from "the run failed" (exit 1), so
// scripts can tell a typo from a real regression. printed suppresses the
// final error line for flag-parse errors the flag package already reported.
type usageError struct {
	msg     string
	printed bool
}

func (e *usageError) Error() string { return e.msg }

func usagef(format string, args ...any) error {
	return &usageError{msg: fmt.Sprintf(format, args...)}
}

// parseFlags runs fs.Parse and classifies the failure: -h/-help passes
// through as flag.ErrHelp (exit 0), anything else is a usage error (exit 2)
// the flag package has already reported on fs.Output.
func parseFlags(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return &usageError{msg: err.Error(), printed: true}
}

// cliMain maps run's error to the process exit code: 0 on success (and for
// -h/-help), 2 on usage errors, 1 on everything else. Every subcommand
// reports through this one path, so exit codes and stderr prefixes are
// uniform across the CLI.
func cliMain(args []string, out, errOut io.Writer) int {
	err := run(args, out, errOut)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	var ue *usageError
	if errors.As(err, &ue) {
		if !ue.printed {
			fmt.Fprintln(errOut, "cactus:", err)
		}
		return 2
	}
	fmt.Fprintln(errOut, "cactus:", err)
	return 1
}

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("cactus", flag.ContinueOnError)
	fs.SetOutput(errOut)
	deviceName := fs.String("device", "rtx3080", "device model: rtx3080 or gtx1080")
	clusters := fs.Int("clusters", 6, "cluster count for figure 9")
	jobs := fs.Int("j", runtime.NumCPU(), "concurrent characterization workers")
	cacheDir := fs.String("cache", "", "profile cache directory (default per-user cache dir)")
	noCache := fs.Bool("no-cache", false, "disable the on-disk profile cache")
	traceFile := fs.String("trace", "", "write a Chrome trace of the study to this file")
	verbose := fs.Bool("v", false, "per-workload progress and counters on stderr")
	metricsFile := fs.String("metrics", "", "write a Prometheus text metrics snapshot to this file at exit")
	logFormat := fs.String("log", "", "structured per-workload logging on stderr: text or json")
	pprofAddr := fs.String("pprof", "", "serve pprof, /metrics, and /debug endpoints on this address")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return usagef("missing command (list, device, run, profile, export, trace, compare, explain, lint, audit, figure, table, bench, serve, all)")
	}
	if *clusters < 1 {
		return usagef("-clusters %d: need at least 1 cluster", *clusters)
	}
	if *jobs < 1 {
		return usagef("-j %d: need at least 1 worker", *jobs)
	}

	var cfg gpu.DeviceConfig
	switch *deviceName {
	case "rtx3080":
		cfg = gpu.RTX3080()
	case "gtx1080":
		cfg = gpu.GTX1080()
	default:
		return usagef("unknown device %q (rtx3080 or gtx1080)", *deviceName)
	}

	var logger *slog.Logger
	switch *logFormat {
	case "":
	case "text":
		logger = slog.New(slog.NewTextHandler(errOut, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(errOut, nil))
	default:
		return usagef("unknown -log format %q (text or json)", *logFormat)
	}
	counters := telemetry.NewCounters()
	registry := telemetry.NewRegistryWith(counters)
	liveRegistry.Store(registry)
	opts := core.StudyOptions{
		Workers:  *jobs,
		Counters: counters,
		Progress: studyProgress(registry, logger, *verbose, errOut),
	}
	var rec *telemetry.Recorder
	if *traceFile != "" {
		rec = telemetry.NewRecorder()
		opts.Tracer = rec
	}
	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		defer func() { _ = ln.Close() }() // shutdown race with http.Serve; nothing to do with the error
		registerObservability()
		// net/http/pprof registers on the default mux; profiles live under
		// /debug/pprof/, the metrics snapshot under /metrics, the
		// attribution tree under /debug/attribution.
		go func() { _ = http.Serve(ln, nil) }()
		fmt.Fprintf(errOut, "cactus: profiling on http://%s/debug/pprof/ (metrics at /metrics, attribution at /debug/attribution)\n", ln.Addr())
	}
	if !*noCache {
		dir := *cacheDir
		if dir == "" {
			d, err := core.DefaultCacheDir()
			if err != nil {
				return fmt.Errorf("no default cache dir (pass -cache DIR or -no-cache): %w", err)
			}
			dir = d
		}
		cache, err := core.OpenCache(dir)
		if err != nil {
			return err
		}
		opts.Cache = cache
	}

	cat, err := core.DefaultCatalog()
	if err != nil {
		return err
	}

	cmdErr := dispatch(rest, cat, cfg, opts, registry, *clusters, out, errOut)
	if *verbose {
		fmt.Fprintln(errOut, "cactus: counters:")
		if err := counters.WriteText(errOut); err != nil && cmdErr == nil {
			cmdErr = err
		}
	}
	if *metricsFile != "" && cmdErr == nil {
		if err := writeFile(*metricsFile, registry.WritePrometheus); err != nil {
			return err
		}
		fmt.Fprintf(errOut, "cactus: wrote metrics snapshot to %s\n", *metricsFile)
	}
	if rec != nil && cmdErr == nil {
		if err := writeFile(*traceFile, func(w io.Writer) error {
			return telemetry.WriteChrome(w, rec.Events())
		}); err != nil {
			return err
		}
		fmt.Fprintf(errOut, "cactus: wrote %d trace events to %s\n", rec.Len(), *traceFile)
	}
	return cmdErr
}

// dispatch executes one CLI command.
func dispatch(rest []string, cat *workloads.Catalog, cfg gpu.DeviceConfig,
	opts core.StudyOptions, reg *telemetry.Registry, clusters int,
	out, errOut io.Writer) error {
	switch rest[0] {
	case "list":
		return core.WriteWorkloadsTable(out, cat.All())

	case "device":
		st := &core.Study{Device: cfg}
		return core.Table2(st, out)

	case "run":
		if len(rest) < 2 {
			return usagef("run: need at least one workload abbreviation")
		}
		ws, err := selectWorkloads(cat, rest[1:])
		if err != nil {
			return err
		}
		st, err := core.NewStudyWith(cfg, opts, ws...)
		if err != nil {
			return err
		}
		liveAttribution.Store(core.Attribute(st))
		for _, p := range st.Profiles {
			fmt.Fprintf(out, "%s: %d kernels, %.3f ms GPU time, %s warp insts, agg II %.2f, agg GIPS %.1f\n",
				p.Abbr(), len(p.Kernels), p.TotalTime.Millis(),
				fmtCount(uint64(p.TotalWarpInsts)), p.AggII, p.AggGIPS)
		}
		return nil

	case "export":
		// The paper's future work: simulator-compatible kernel traces.
		if len(rest) < 2 || len(rest) > 3 {
			return usagef("export: usage: export <abbr> [file]")
		}
		w, err := cat.Lookup(rest[1])
		if err != nil {
			return err
		}
		sess, err := core.RunWorkload(w, cfg, opts.Tracer, opts.Counters, 0)
		if err != nil {
			return err
		}
		if err := writeToSink(rest, out, func(sink io.Writer) error {
			return trace.Export(sink, w.Abbr(), cfg, sess)
		}); err != nil {
			return err
		}
		fmt.Fprintf(errOut, "exported %d launches\n", sess.LaunchCount())
		return nil

	case "trace":
		// The Nsight-Systems analogue: one workload's launch timeline as
		// Chrome trace-event JSON (chrome://tracing / Perfetto).
		if len(rest) < 2 || len(rest) > 3 {
			return usagef("trace: usage: trace <abbr> [file]")
		}
		w, err := cat.Lookup(rest[1])
		if err != nil {
			return err
		}
		rec := telemetry.NewRecorder()
		sess, err := core.RunWorkload(w, cfg, rec, reg.Counters(), 0)
		if err != nil {
			return err
		}
		if err := writeToSink(rest, out, func(sink io.Writer) error {
			return telemetry.WriteChrome(sink, rec.Events())
		}); err != nil {
			return err
		}
		fmt.Fprintf(errOut, "traced %d launches, modeled %.3f ms\n",
			sess.LaunchCount(), sess.TotalTime().Millis())
		return nil

	case "profile":
		if len(rest) != 2 {
			return usagef("profile: need exactly one workload abbreviation")
		}
		w, err := cat.Lookup(rest[1])
		if err != nil {
			return err
		}
		st, err := core.NewStudyWith(cfg, opts, w)
		if err != nil {
			return err
		}
		liveAttribution.Store(core.Attribute(st))
		return core.WriteProfileTable(out, st.Profiles[0])

	case "figure":
		if len(rest) != 2 {
			return usagef("figure: need a figure number 1..9")
		}
		n, err := strconv.Atoi(rest[1])
		if err != nil || n < 1 || n > 9 {
			return usagef("figure: %q is not in 1..9", rest[1])
		}
		if n == 1 {
			return core.Figure1(out)
		}
		st, err := studyFor(cat, cfg, opts, n)
		if err != nil {
			return err
		}
		liveAttribution.Store(core.Attribute(st))
		switch n {
		case 2:
			return core.Figure2(st, out)
		case 3:
			return core.Figure3(st, out)
		case 4:
			return core.Figure4(st, out)
		case 5:
			return core.Figure5(st, out)
		case 6:
			return core.Figure6(st, out)
		case 7:
			return core.Figure7(st, out)
		case 8:
			return core.Figure8(st, out)
		case 9:
			return core.Figure9(st, out, clusters)
		}
		return nil

	case "table":
		if len(rest) != 2 {
			return usagef("table: need a table number 1..4")
		}
		switch rest[1] {
		case "1":
			st, err := core.NewStudyWith(cfg, opts, core.CactusWorkloads()...)
			if err != nil {
				return err
			}
			liveAttribution.Store(core.Attribute(st))
			return core.Table1(st, out)
		case "2":
			return core.Table2(&core.Study{Device: cfg}, out)
		case "3":
			return core.Table3(cat, out)
		case "4":
			return core.Table4(out)
		}
		return usagef("table: %q is not in 1..4", rest[1])

	case "compare":
		// Cross-device sensitivity (the paper's future work): characterize
		// the given workloads on the RTX 3080 and GTX 1080 models.
		if len(rest) < 2 {
			return usagef("compare: need at least one workload abbreviation")
		}
		ws, err := selectWorkloads(cat, rest[1:])
		if err != nil {
			return err
		}
		a, err := core.NewStudyWith(gpu.RTX3080(), opts, ws...)
		if err != nil {
			return err
		}
		bSt, err := core.NewStudyWith(gpu.GTX1080(), opts, ws...)
		if err != nil {
			return err
		}
		cmps, err := core.CompareDevices(a, bSt)
		if err != nil {
			return err
		}
		return core.WriteCompareTable(out, cmps)

	case "lint":
		ws, err := selectWorkloads(cat, rest[1:])
		if err != nil {
			return err
		}
		return lintWorkloads(ws, cfg, out, errOut)

	case "audit":
		ws, err := selectWorkloads(cat, rest[1:])
		if err != nil {
			return err
		}
		return auditWorkloads(ws, cfg, opts, out, errOut)

	case "explain":
		return explainCmd(rest, cat, cfg, opts, out, errOut)

	case "bench":
		return benchCmd(rest, cfg, out, errOut)

	case "serve":
		return serveCmd(rest[1:], opts, reg, errOut)

	case "all":
		st, err := core.NewStudyWith(cfg, opts, cat.All()...)
		if err != nil {
			return err
		}
		liveAttribution.Store(core.Attribute(st))
		if err := core.Figure1(out); err != nil {
			return err
		}
		if err := core.Figure2(st, out); err != nil {
			return err
		}
		if err := core.Table1(st, out); err != nil {
			return err
		}
		if err := core.Figure3(st, out); err != nil {
			return err
		}
		if err := core.Figure4(st, out); err != nil {
			return err
		}
		if err := core.Figure5(st, out); err != nil {
			return err
		}
		if err := core.Figure6(st, out); err != nil {
			return err
		}
		if err := core.Figure7(st, out); err != nil {
			return err
		}
		if err := core.Figure8(st, out); err != nil {
			return err
		}
		return core.Figure9(st, out, clusters)

	default:
		return usagef("unknown command %q", rest[0])
	}
}

// lintWorkloads runs each workload against a device-less session —
// recording its kernel-spec stream without pricing it — and reports every
// spec that violates the device's hardware limits (gpu.CheckSpec).
func lintWorkloads(ws []workloads.Workload, cfg gpu.DeviceConfig, out, errOut io.Writer) error {
	return checkWorkloads("lint", "kernel-spec", ws, cfg, out, errOut, func(w workloads.Workload) (int, []issue, error) {
		sess := profiler.NewSession(nil)
		if err := w.Run(sess); err != nil {
			return 0, nil, fmt.Errorf("lint: %s: %w", w.Abbr(), err)
		}
		specs := sess.Specs()
		var issues []issue
		for _, spec := range specs {
			for _, is := range gpu.CheckSpec(cfg, spec) {
				issues = append(issues, issue{spec.Name, is.Rule, is.Detail})
			}
		}
		return len(specs), issues, nil
	})
}

// auditWorkloads replays each workload on the real timing model and audits
// every launch result for metric soundness (gpu.CheckResult), plus the
// session-level identity that per-kernel times sum to the session total.
// The runs feed opts' tracer and counters, each workload on its own
// modeled-track lane.
func auditWorkloads(ws []workloads.Workload, cfg gpu.DeviceConfig, opts core.StudyOptions, out, errOut io.Writer) error {
	lane := 0
	return checkWorkloads("audit", "metric-soundness", ws, cfg, out, errOut, func(w workloads.Workload) (int, []issue, error) {
		sess, err := core.RunWorkload(w, cfg, opts.Tracer, opts.Counters, lane)
		lane++
		if err != nil {
			return 0, nil, err
		}
		ls := sess.Launches()
		var issues []issue
		for _, l := range ls {
			for _, is := range gpu.CheckResult(cfg, l) {
				issues = append(issues, issue{l.Name, is.Rule, is.Detail})
			}
		}
		var kernelSum units.Seconds
		for _, kp := range sess.Kernels() {
			kernelSum += kp.TotalTime
		}
		total := sess.TotalTime().Float()
		if diff := math.Abs(kernelSum.Float() - total); diff > 1e-9*math.Max(total, 1e-12) {
			issues = append(issues, issue{"(session)", "time-sum",
				fmt.Sprintf("per-kernel times sum to %.9g s, session total is %.9g s", kernelSum.Float(), total)})
		}
		return len(ls), issues, nil
	})
}

// issue is one rule violation found on one launch.
type issue struct{ kernel, rule, detail string }

// checkWorkloads runs check over each workload in turn and reports what it
// found: one line per (kernel, rule), in order of first appearance, with
// the first detail and the number of offending launches, then a summary on
// errOut. It returns an error (nonzero exit) when any violation is found;
// kind names the class of violation.
func checkWorkloads(cmd, kind string, ws []workloads.Workload, cfg gpu.DeviceConfig, out, errOut io.Writer,
	check func(workloads.Workload) (launches int, issues []issue, err error)) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	type key struct{ kernel, rule string }
	var launches, violations int
	for _, w := range ws {
		n, issues, err := check(w)
		if err != nil {
			return err
		}
		launches += n
		counts := make(map[key]int)
		var first []issue
		for _, is := range issues {
			k := key{is.kernel, is.rule}
			if counts[k] == 0 {
				first = append(first, is)
			}
			counts[k]++
		}
		for _, is := range first {
			fmt.Fprintf(out, "%s/%s: kernel %s: %s: %s (%d launches)\n",
				w.Suite(), w.Abbr(), is.kernel, is.rule, is.detail, counts[key{is.kernel, is.rule}])
		}
		violations += len(first)
	}
	fmt.Fprintf(errOut, "cactus %s: %d workloads, %d launches audited, %d violations\n",
		cmd, len(ws), launches, violations)
	if violations > 0 {
		return fmt.Errorf("%s: %d %s violation(s)", cmd, violations, kind)
	}
	return nil
}

// selectWorkloads resolves abbrs against the catalog, in order; no
// abbreviations selects the whole catalog.
func selectWorkloads(cat *workloads.Catalog, abbrs []string) ([]workloads.Workload, error) {
	if len(abbrs) == 0 {
		return cat.All(), nil
	}
	ws := make([]workloads.Workload, 0, len(abbrs))
	for _, abbr := range abbrs {
		w, err := cat.Lookup(abbr)
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// writeFile runs write against a newly created file at path, propagating
// the close error: that is when buffered bytes reach disk.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}

// writeToSink runs write against rest[2] when a file argument is given or
// against out otherwise.
func writeToSink(rest []string, out io.Writer, write func(io.Writer) error) error {
	if len(rest) < 3 {
		return write(out)
	}
	return writeFile(rest[2], write)
}

// studyFor builds the smallest study each figure needs.
func studyFor(cat *workloads.Catalog, cfg gpu.DeviceConfig, opts core.StudyOptions, figure int) (*core.Study, error) {
	switch figure {
	case 2, 4:
		return core.NewStudyWith(cfg, opts, core.BaselineWorkloads()...)
	case 3, 5, 6, 7:
		return core.NewStudyWith(cfg, opts, core.CactusWorkloads()...)
	default: // 8, 9 compare all suites
		return core.NewStudyWith(cfg, opts, cat.All()...)
	}
}

func fmtCount(v uint64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.1fB", float64(v)/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", float64(v)/1e6)
	}
	return strconv.FormatUint(v, 10)
}
