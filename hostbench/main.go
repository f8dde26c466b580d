// Command hostbench is the reproduction's host-time benchmark. It drives the
// characterization pipeline through its public Go entry points on two
// workloads — study_all and serve_mix — checks every output
// against the reference digests in reference.json, and prints one JSON
// result line. With --trace 1 it makes a separate traced run and prints the
// per-layer split instead of the end-to-end metrics. README.md describes the
// workloads, the metrics and the accounting.
//
// Usage, from the repository root:
//
//	bash hostbench/run.sh --workload study_all --seed 1 --seconds 55 --trace 0
//
// run.sh builds this program with its Go caches under .bench_build.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// metricDef is one reported metric: its name in BENCHMARK.json and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cold_cpu_s", "s"},
	{"warm_cpu_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a --trace 1 run prints, on every workload. A
// layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"compute.ml_s", "s"},
	{"compute.md_s", "s"},
	{"compute.graph_s", "s"},
	{"compute.baseline_s", "s"},
	{"workload.GMS.host_s", "s"},
	{"workload.LMR.host_s", "s"},
	{"workload.LMC.host_s", "s"},
	{"workload.GST.host_s", "s"},
	{"workload.GRU.host_s", "s"},
	{"workload.DCG.host_s", "s"},
	{"workload.NST.host_s", "s"},
	{"workload.RFL.host_s", "s"},
	{"workload.SPT.host_s", "s"},
	{"workload.LGT.host_s", "s"},
	{"gpu.launch_s", "s"},
	{"gpu.launch_us", "us"},
	{"gpu.launches", "count"},
	{"profiler.aggregate_s", "s"},
	{"engine.worker_busy_frac", "fraction"},
	{"cache.store_s", "s"},
	{"cache.probe_s", "s"},
	{"cache.probes", "count"},
	{"cache.hit_ratio", "fraction"},
	{"stats.correlate_ms", "ms"},
	{"stats.cluster_ms", "ms"},
	{"render.fig1_7_ms", "ms"},
	{"render.fig8_ms", "ms"},
	{"render.fig9_ms", "ms"},
	{"attribution.ms", "ms"},
	{"server.profile_p50_ms", "ms"},
	{"server.roofline_p50_ms", "ms"},
	{"server.explain_p50_ms", "ms"},
	{"server.compare_p50_ms", "ms"},
	{"server.batch_p50_ms", "ms"},
	{"server.lru_hit_ratio", "fraction"},
	{"server.flight_shared", "count"},
	{"server.resp_kb", "KB"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"sim.modeled_ms", "ms"},
	{"sim.warp_insts", "count"},
	{"host.cold_wall_s", "s"},
	{"host.warm_wall_p50_ms", "ms"},
	{"host.warm_wall_p90_ms", "ms"},
	{"host.steal_frac", "fraction"},
	{"trace.overhead_frac", "fraction"},
	{"trace.unaccounted_frac", "fraction"},
}

// workloadNames are the benchmark workloads in BENCHMARK.json order.
var workloadNames = []string{"study_all", "serve_mix"}

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workDir  string // scratch root for caches and traces
	record   string // when set, write reference digests here instead of measuring
}

// measurement is what one workload run produced: metric values by name and
// the tally of checked operations.
type measurement struct {
	values map[string]float64
	ops    tally
}

func newMeasurement() *measurement { return &measurement{values: map[string]float64{}} }

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, out, errOut io.Writer) int {
	cfg, err := parseArgs(args, errOut)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(errOut, "hostbench:", err)
		return 2
	}
	env := readEnv()
	fmt.Fprintf(errOut, "hostbench: %s\n", env)
	if cfg.record != "" {
		if err := recordReference(cfg, errOut); err != nil {
			fmt.Fprintln(errOut, "hostbench: record:", err)
			return 1
		}
		return 0
	}
	p, err := plannedGoroutines(cfg.workload, env)
	if err != nil {
		fmt.Fprintln(errOut, "hostbench: refused:", err)
		return 3
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(errOut, "hostbench:", err)
		return 1
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintln(errOut, "hostbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(cfg.workDir, cfg.workload+"-*")
	if err != nil {
		fmt.Fprintln(errOut, "hostbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	fmt.Fprintf(errOut, "hostbench: %s seed=%d seconds=%d trace=%v workers=%d clients=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, p.workers, p.clients)
	steal := startSteal()
	run := runners[cfg.workload]
	m, err := run(cfg, p, ref, dir, errOut)
	if err != nil {
		fmt.Fprintln(errOut, "hostbench:", err)
		return 1
	}
	m.values["host.steal_frac"] = steal.frac()
	fmt.Fprintf(errOut, "hostbench: the hypervisor stole %.1f%% of the machine's CPU time during the run\n", 100*m.values["host.steal_frac"])
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	} else {
		m.values["peak_rss_mb"] = peakRSSMB()
	}
	res, err := buildResult(defs, m, !cfg.trace)
	if err != nil {
		fmt.Fprintln(errOut, "hostbench:", err)
		return 1
	}
	m.ops.report(errOut)
	envLine, _ := json.Marshal(map[string]any{"env": env})
	fmt.Fprintln(out, string(envLine))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(errOut, "hostbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	return 0
}

// runners maps each workload to the function that measures it.
var runners = map[string]func(config, plan, *reference, string, io.Writer) (*measurement, error){
	"study_all": runStudyAll,
	"serve_mix": runServeMix,
}

func parseArgs(args []string, errOut io.Writer) (config, error) {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&cfg.seconds, "seconds", 20, "measuring time of one run, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 makes a traced run and prints the per-layer metrics")
	fs.StringVar(&cfg.workDir, "workdir", filepath.Join(".bench_build", "work"), "scratch directory for caches and traces")
	fs.StringVar(&cfg.record, "record", "", "write reference digests to this file and exit")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if cfg.record != "" {
		return cfg, nil
	}
	if _, ok := runners[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q (%s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if cfg.seconds < 1 {
		return cfg, fmt.Errorf("--seconds %d: need at least 1", cfg.seconds)
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace %d: need 0 or 1", trace)
	}
	cfg.trace = trace == 1
	return cfg, nil
}

// buildResult assembles the result line from the metric list. An
// end-to-end metric that is missing or not positive is an error: the
// benchmark's gate compares medians, which a 0 would make meaningless.
func buildResult(defs []metricDef, m *measurement, positive bool) (map[string]any, error) {
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := m.values[d.name]
		if positive && (!ok || !(v > 0)) {
			return nil, fmt.Errorf("metric %s = %v: end-to-end metrics must be measured and positive", d.name, v)
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	attempted := m.ops.attempted
	if attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	return map[string]any{
		"correct":   m.ops.failed == 0,
		"attempted": attempted,
		"failed":    m.ops.failed,
		"metrics":   metrics,
	}, nil
}

// environment is the machine record printed with every result.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func (e environment) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s cpu=%q", e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.CPUModel)
}

func readEnv() environment {
	return environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown"
// where the file does not exist or carries none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// plan is a run's parallelism: engine workers, and for serve_mix the
// closed-loop HTTP clients.
type plan struct{ workers, clients int }

// plannedGoroutines derives the workload's parallelism from the machine
// and refuses a run whose busy goroutines exceed the cores the process may
// use: a parallel figure measured on fewer cores than workers measures no
// parallelism. study_all uses nproc engine workers, as the CLI defaults.
// serve_mix uses min(2, nproc) clients and as many engine workers; each
// client's goroutine runs the handler of its own request and holds its
// engine slot, so the clients are the busy goroutines.
func plannedGoroutines(workload string, env environment) (plan, error) {
	cores := min(env.NumCPU, env.GOMAXPROCS)
	var p plan
	busy := 0
	switch workload {
	case "study_all":
		p.workers = env.NumCPU
		busy = p.workers
	case "serve_mix":
		p.clients = min(2, env.NumCPU)
		p.workers = p.clients
		busy = p.clients
	}
	if busy > cores {
		return p, fmt.Errorf("%s needs %d busy goroutines but only %d cores are usable (nproc %d, GOMAXPROCS %d)",
			workload, busy, cores, env.NumCPU, env.GOMAXPROCS)
	}
	return p, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// tally counts checked operations and keeps the first few failures.
type tally struct {
	attempted, failed int
	failures          []string
}

// check records one operation; ok false makes it a failed one.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		if len(t.failures) < 10 {
			t.failures = append(t.failures, fmt.Sprintf(format, args...))
		}
	}
}

// add counts other's operations into t.
func (t *tally) add(other tally) {
	t.attempted += other.attempted
	t.failed += other.failed
	t.failures = append(t.failures, other.failures...)
}

func (t *tally) report(w io.Writer) {
	rate := 0.0
	if t.attempted > 0 {
		rate = float64(t.failed) / float64(t.attempted)
	}
	fmt.Fprintf(w, "hostbench: %d operations checked, %d failed (error rate %.6f)\n", t.attempted, t.failed, rate)
	for _, f := range t.failures {
		fmt.Fprintln(w, "hostbench: FAILED:", f)
	}
}
