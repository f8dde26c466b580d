package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/benchkit"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/graphx"
	"repro/internal/isa"
	"repro/internal/memsim"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// benchSuite is the registered benchmark set behind `cactus bench`: the two
// end-to-end study shapes the CI gate protects, plus micro-benchmarks for
// the subsystems the studies spend their time in. Iteration counts are
// fixed here — not auto-tuned — so every run times exactly the same work
// and ns/op is comparable between runs (see internal/benchkit).
func benchSuite(cfg gpu.DeviceConfig) []benchkit.Bench {
	// launch_disabled state: one device with telemetry off, so the entry
	// times the bare Launch hot path — the cost the observability layer
	// must not perturb when disabled.
	launchDev, err := gpu.New(cfg)
	if err != nil {
		panic(err) // cfg was validated by the caller; a failure here is a bug
	}
	const launchBytes = 8 << 20
	var launchMix isa.Mix
	launchMix.Add(isa.FP32, launchBytes/64)
	launchMix.Add(isa.LoadGlobal, launchBytes/128)
	// registry_observe state: one registry observed into per iteration —
	// the marginal cost a study pays per metrics event when enabled.
	reg := telemetry.NewRegistry()
	modeled := reg.Histogram(telemetry.HistWorkloadModeledSeconds)
	l1 := reg.Histogram(telemetry.HistKernelL1HitRate)
	return []benchkit.Bench{
		{Name: "study_serial", Iters: 1, Fn: func() {
			if _, err := core.NewStudy(cfg, core.CactusWorkloads()...); err != nil {
				panic(err)
			}
		}},
		{Name: "study_parallel_j8", Iters: 1, Fn: func() {
			if _, err := core.NewStudyWith(cfg, core.StudyOptions{Workers: 8}, core.CactusWorkloads()...); err != nil {
				panic(err)
			}
		}},
		{Name: "memsim_replay", Iters: 20, Fn: func() {
			pool := memsim.NewReplayPool(cfg.L1Config(), cfg.L2Config())
			h := pool.Get()
			addrs := make([]uint64, 0, (4<<20)/64)
			for a := uint64(0); a < 4<<20; a += 64 {
				addrs = append(addrs, a)
			}
			h.AccessBatch(addrs)
			pool.Put(h)
		}},
		{Name: "tensor_conv2d", Iters: 10, Fn: func() {
			r := rand.New(rand.NewSource(1))
			x := tensor.Randn(r, 1, 8, 16, 32, 32)
			w := tensor.Randn(r, 1, 32, 16, 3, 3)
			bias := tensor.New(32)
			if _, err := tensor.Conv2D(x, w, bias, 1, 1); err != nil {
				panic(err)
			}
		}},
		{Name: "graphx_rmat", Iters: 5, Fn: func() {
			if _, err := graphx.RMAT(15, 8, 42); err != nil {
				panic(err)
			}
		}},
		{Name: "launch_disabled", Iters: 100, Fn: func() {
			if _, err := launchDev.Launch(gpu.KernelSpec{
				Name: "bench_launch", Grid: gpu.D1(1024), Block: gpu.D1(256), Mix: launchMix,
				Streams: []memsim.Stream{{
					Name: "s", FootprintBytes: launchBytes, AccessBytes: launchBytes,
					ElemBytes: 4, Pattern: memsim.Coalesced, Partitioned: true,
				}},
			}); err != nil {
				panic(err)
			}
		}},
		{Name: "registry_observe", Iters: 100000, Fn: func() {
			modeled.Observe(0.0042)
			l1.Observe(0.87)
			reg.Counters().Add(telemetry.CtrLaunches, 1)
			reg.Counters().Add(telemetry.CtrWarpInstructions, 4096)
		}},
	}
}

// benchCmd implements `cactus bench [run|check|scaling]`.
func benchCmd(rest []string, cfg gpu.DeviceConfig, out, errOut io.Writer) error {
	sub, args := "run", rest[1:]
	if len(rest) > 1 && (rest[1] == "check" || rest[1] == "scaling" || rest[1] == "run") {
		sub, args = rest[1], rest[2:]
	}
	switch sub {
	case "run":
		fs := flag.NewFlagSet("cactus bench", flag.ContinueOnError)
		fs.SetOutput(errOut)
		label := fs.String("label", "current", "suite label; results go to BENCH_<label>.json")
		rounds := fs.Int("rounds", 3, "rounds per benchmark (the fastest is reported)")
		if err := parseFlags(fs, args); err != nil {
			return err
		}
		suite := benchkit.RunSuite(*label, benchSuite(cfg), *rounds, out)
		path := "BENCH_" + *label + ".json"
		if err := benchkit.WriteFile(path, suite); err != nil {
			return err
		}
		fmt.Fprintf(errOut, "cactus bench: wrote %d results to %s\n", len(suite.Results), path)
		return nil

	case "check":
		fs := flag.NewFlagSet("cactus bench check", flag.ContinueOnError)
		fs.SetOutput(errOut)
		baselinePath := fs.String("baseline", "BENCH_baseline.json", "baseline suite file")
		currentPath := fs.String("current", "", "pre-recorded current suite file (default: measure now)")
		threshold := fs.Float64("threshold", 0.15, "allowed slowdown before failing (0.15 = 15%)")
		rounds := fs.Int("rounds", 3, "rounds per benchmark when measuring")
		annotate := fs.Bool("annotate", false, "emit GitHub Actions ::error annotations for regressions")
		if err := parseFlags(fs, args); err != nil {
			return err
		}
		baseline, err := benchkit.ReadFile(*baselinePath)
		if err != nil {
			return fmt.Errorf("bench check: %w", err)
		}
		var current benchkit.Suite
		if *currentPath != "" {
			if current, err = benchkit.ReadFile(*currentPath); err != nil {
				return fmt.Errorf("bench check: %w", err)
			}
		} else {
			current = benchkit.RunSuite("current", benchSuite(cfg), *rounds, out)
			if err := benchkit.WriteFile("BENCH_current.json", current); err != nil {
				return err
			}
		}
		regs, missing := benchkit.Compare(baseline, current, *threshold)
		for _, name := range missing {
			fmt.Fprintf(out, "missing: %s is in the baseline but was not measured\n", name)
			if *annotate {
				fmt.Fprintf(out, "::error title=Benchmark missing: %s::%s is in %s but was not measured\n",
					name, name, *baselinePath)
			}
		}
		for _, r := range regs {
			fmt.Fprintln(out, r)
			if *annotate {
				fmt.Fprintln(out, r.Annotation())
			}
		}
		if n := len(regs) + len(missing); n > 0 {
			return fmt.Errorf("bench check: %d benchmark(s) regressed past %.0f%% or went missing", n, 100**threshold)
		}
		fmt.Fprintf(errOut, "cactus bench check: %d benchmarks within %.0f%% of %s\n",
			len(baseline.Results), 100**threshold, *baselinePath)
		return nil

	case "scaling":
		// Concurrency-scaling smoke: characterize the Cactus suite at
		// several worker counts and fail if going wide makes the study
		// slower than serial (a lock serializing the workers, a pool gone
		// pathological). Speedup is not asserted — CI runners have few
		// cores — only the absence of a slowdown, with tolerance for noise.
		fs := flag.NewFlagSet("cactus bench scaling", flag.ContinueOnError)
		fs.SetOutput(errOut)
		tolerance := fs.Float64("tolerance", 0.25, "allowed parallel-over-serial slowdown (0.25 = 25%)")
		rounds := fs.Int("rounds", 2, "rounds per worker count (the fastest is reported)")
		if err := parseFlags(fs, args); err != nil {
			return err
		}
		var serialNs float64
		for _, workers := range []int{1, 2, 8} {
			w := workers
			res := benchkit.Run(benchkit.Bench{
				Name: fmt.Sprintf("study_j%d", w), Iters: 1,
				Fn: func() {
					if _, err := core.NewStudyWith(cfg, core.StudyOptions{Workers: w}, core.CactusWorkloads()...); err != nil {
						panic(err)
					}
				},
			}, *rounds)
			fmt.Fprintf(out, "%-12s %14.0f ns/op\n", res.Name, res.NsPerOp)
			if w == 1 {
				serialNs = res.NsPerOp
				continue
			}
			if res.NsPerOp > serialNs*(1+*tolerance) {
				return fmt.Errorf("bench scaling: -j %d is %.1f%% slower than -j 1",
					w, 100*(res.NsPerOp/serialNs-1))
			}
		}
		fmt.Fprintf(errOut, "cactus bench scaling: parallel within %.0f%% of serial\n", 100**tolerance)
		return nil
	}
	return usagef("bench: unknown subcommand %q (run, check, scaling)", sub)
}
