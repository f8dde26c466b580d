package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/profiler"
	"repro/internal/testutil"
	"repro/internal/workloads"
)

func TestRunArgValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"no command", nil},
		{"unknown command", []string{"frobnicate"}},
		{"unknown device", []string{"-device", "voodoo3", "list"}},
		{"figure out of range", []string{"figure", "12"}},
		{"figure not a number", []string{"figure", "one"}},
		{"table out of range", []string{"table", "9"}},
		{"run without workload", []string{"run"}},
		{"profile wrong arity", []string{"profile"}},
		{"profile unknown workload", []string{"profile", "XYZ"}},
		{"export wrong arity", []string{"export"}},
		{"compare without workload", []string{"compare"}},
		{"audit unknown workload", []string{"audit", "XYZ"}},
		{"explain unknown workload", []string{"explain", "XYZ"}},
		{"unknown log format", []string{"-log", "xml", "list"}},
	}
	for _, tc := range cases {
		if err := run(tc.args, io.Discard, io.Discard); err == nil {
			t.Errorf("%s: expected an error for %v", tc.name, tc.args)
		}
	}
}

// TestUsageListsEveryCommand — the missing-command error is the CLI's only
// usage listing, so every command must appear in it (compare used to be
// omitted).
func TestUsageListsEveryCommand(t *testing.T) {
	err := run(nil, io.Discard, io.Discard)
	if err == nil {
		t.Fatal("expected a missing-command error")
	}
	for _, cmd := range []string{
		"list", "device", "run", "profile", "export", "trace", "compare", "explain", "lint", "audit", "figure", "table", "bench", "serve", "all",
	} {
		if !strings.Contains(err.Error(), cmd) {
			t.Errorf("usage error %q omits command %q", err, cmd)
		}
	}
}

// TestExitCodes pins the CLI's exit-code convention across subcommands:
// 0 for success and -h/-help, 2 for usage errors (unknown command or flag,
// wrong arity, out-of-range argument), 1 for runtime failures.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"success", []string{"list"}, 0},
		{"help flag", []string{"-h"}, 0},
		{"serve help", []string{"serve", "-h"}, 0},
		{"explain help", []string{"explain", "-h"}, 0},
		{"bench check help", []string{"bench", "check", "-h"}, 0},
		{"missing command", nil, 2},
		{"unknown command", []string{"frobnicate"}, 2},
		{"unknown flag", []string{"-frobnicate", "list"}, 2},
		{"unknown device", []string{"-device", "voodoo3", "list"}, 2},
		{"bad log format", []string{"-log", "xml", "list"}, 2},
		{"figure out of range", []string{"figure", "12"}, 2},
		{"figure not a number", []string{"figure", "one"}, 2},
		{"table out of range", []string{"table", "9"}, 2},
		{"run without workload", []string{"run"}, 2},
		{"profile wrong arity", []string{"profile"}, 2},
		{"export wrong arity", []string{"export"}, 2},
		{"trace wrong arity", []string{"trace"}, 2},
		{"compare without workload", []string{"compare"}, 2},
		{"serve unexpected argument", []string{"serve", "bogus"}, 2},
		{"serve unknown flag", []string{"serve", "-frobnicate"}, 2},
		{"explain unknown flag", []string{"explain", "-frobnicate"}, 2},
		// Out-of-range values are rejected before any study runs or any
		// server starts.
		{"clusters below one", []string{"-no-cache", "-clusters", "0", "figure", "9"}, 2},
		{"jobs zero", []string{"-no-cache", "-j", "0", "figure", "2"}, 2},
		{"jobs negative", []string{"-no-cache", "-j", "-4", "figure", "2"}, 2},
		{"serve lru below one", []string{"-no-cache", "serve", "-lru", "-1"}, 2},
		{"serve max-inflight zero", []string{"-no-cache", "serve", "-max-inflight", "0"}, 2},
		{"serve negative timeout", []string{"-no-cache", "serve", "-timeout", "-5s"}, 2},
		{"unknown workload", []string{"profile", "XYZ"}, 1},
		{"bench check missing baseline", []string{"bench", "check", "-baseline", "/nonexistent.json", "-current", "/nonexistent.json"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := cliMain(tc.args, io.Discard, io.Discard); got != tc.want {
				t.Errorf("cliMain(%v) = %d, want %d", tc.args, got, tc.want)
			}
		})
	}
}

// TestErrorOutputOnStderr — every failure path reports on stderr exactly
// once: prefixed errors are not duplicated, flag-parse errors are left to
// the flag package's own report, and stdout stays clean.
func TestErrorOutputOnStderr(t *testing.T) {
	t.Run("usage error prefixed once", func(t *testing.T) {
		var out, errOut strings.Builder
		if got := cliMain([]string{"frobnicate"}, &out, &errOut); got != 2 {
			t.Fatalf("exit = %d, want 2", got)
		}
		if want := "cactus: unknown command \"frobnicate\"\n"; errOut.String() != want {
			t.Errorf("stderr = %q, want %q", errOut.String(), want)
		}
		if out.Len() != 0 {
			t.Errorf("stdout = %q, want empty", out.String())
		}
	})
	t.Run("flag error not duplicated", func(t *testing.T) {
		var errOut strings.Builder
		if got := cliMain([]string{"-frobnicate"}, io.Discard, &errOut); got != 2 {
			t.Fatalf("exit = %d, want 2", got)
		}
		if n := strings.Count(errOut.String(), "flag provided but not defined"); n != 1 {
			t.Errorf("flag error reported %d times, want once:\n%s", n, errOut.String())
		}
	})
	t.Run("help usage on requested stream", func(t *testing.T) {
		var errOut strings.Builder
		if got := cliMain([]string{"-h"}, io.Discard, &errOut); got != 0 {
			t.Fatalf("exit = %d, want 0", got)
		}
		if !strings.Contains(errOut.String(), "-device") {
			t.Errorf("-h output missing flag docs:\n%s", errOut.String())
		}
	})
}

// TestAuditCommand replays a small workload subset through the metric
// audit: the model must pass its own soundness checks, and the stderr
// summary must account for every launch.
func TestAuditCommand(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"audit", "GMS", "pb-sgemm", "rd-kmeans"}, &out, &errOut); err != nil {
		t.Fatalf("audit: %v\n%s", err, out.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean audit wrote violations:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "3 workloads") ||
		!strings.Contains(errOut.String(), "0 violations") {
		t.Errorf("audit summary = %q", errOut.String())
	}
}

func TestRunFastCommands(t *testing.T) {
	for _, args := range [][]string{
		{"list"},
		{"device"},
		{"-device", "gtx1080", "device"},
		{"table", "2"},
		{"table", "3"},
		{"table", "4"},
		{"figure", "1"},
	} {
		if err := run(args, io.Discard, io.Discard); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}

// TestFigureCacheAndWorkers runs the same figure cold (populating a fresh
// cache, in parallel) and warm (serving from it, serially) and requires
// byte-identical output — the end-to-end contract of the -j/-cache flags.
func TestFigureCacheAndWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("characterizes the baseline workloads")
	}
	dir := t.TempDir()
	var cold, warm bytes.Buffer
	if err := run([]string{"-cache", dir, "-j", "4", "figure", "2"}, &cold, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-cache", dir, "-j", "1", "figure", "2"}, &warm, io.Discard); err != nil {
		t.Fatal(err)
	}
	if cold.Len() == 0 {
		t.Fatal("figure 2 produced no output")
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Error("warm-cache figure 2 output differs from cold run")
	}
}

// traceTo runs `cactus -no-cache trace pb-sgemm FILE` and returns the
// parsed trace plus the "traced N launches" stderr line.
func traceTo(t *testing.T, file string) (*testutil.ChromeTrace, int) {
	t.Helper()
	var errOut bytes.Buffer
	if err := run([]string{"-no-cache", "trace", "pb-sgemm", file}, io.Discard, &errOut); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := testutil.ReadChrome(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("trace output is not valid Chrome trace JSON: %v", err)
	}
	var launches int
	for _, line := range strings.Split(errOut.String(), "\n") {
		if strings.HasPrefix(line, "traced ") {
			if _, err := fmt.Sscanf(line, "traced %d launches", &launches); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
		}
	}
	if launches == 0 {
		t.Fatalf("no 'traced N launches' line on stderr: %q", errOut.String())
	}
	return tr, launches
}

// TestTraceCommand — the acceptance contract for `cactus trace`: valid
// Chrome trace JSON with exactly one complete event per kernel launch on
// each track, deterministic across runs on the modeled-time track.
func TestTraceCommand(t *testing.T) {
	dir := t.TempDir()
	tr, launches := traceTo(t, filepath.Join(dir, "a.json"))

	// Each launch yields one complete ("X") span per track: cat "kernel" on
	// the modeled track (pid 1), cat "launch" on the host track (pid 2).
	spans := map[string]int{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" {
			spans[ev.Cat]++
		}
	}
	if spans["kernel"] != launches {
		t.Errorf("modeled track has %d kernel spans, want %d (one per launch)", spans["kernel"], launches)
	}
	if spans["launch"] != launches {
		t.Errorf("host track has %d launch spans, want %d (one per launch)", spans["launch"], launches)
	}

	// Modeled-time track must be byte-for-byte reproducible across runs.
	tr2, _ := traceTo(t, filepath.Join(dir, "b.json"))
	pick := func(tr *testutil.ChromeTrace) []testutil.ChromeEvent {
		var evs []testutil.ChromeEvent
		for _, ev := range tr.TraceEvents {
			if ev.PID == 1 {
				evs = append(evs, ev)
			}
		}
		return evs
	}
	if !reflect.DeepEqual(pick(tr), pick(tr2)) {
		t.Error("modeled-track events differ between two runs of the same trace command")
	}
}

// TestVerboseProgressAndCounters — -v must attribute each workload to a
// cache outcome (miss cold, hit warm) and print a counters snapshot whose
// hits+misses accounting is visible.
func TestVerboseProgressAndCounters(t *testing.T) {
	dir := t.TempDir()
	runV := func() string {
		var errOut bytes.Buffer
		if err := run([]string{"-cache", dir, "-v", "-j", "2", "run", "pb-sgemm", "pb-spmv"},
			io.Discard, &errOut); err != nil {
			t.Fatal(err)
		}
		return errOut.String()
	}
	cold := runV()
	for _, want := range []string{
		"cactus: pb-sgemm:", "cactus: pb-spmv:", "cache miss",
		"cactus: counters:", "cache.misses", "study.workloads_characterized",
	} {
		if !strings.Contains(cold, want) {
			t.Errorf("cold -v output missing %q:\n%s", want, cold)
		}
	}
	if strings.Contains(cold, "cache hit") {
		t.Errorf("cold run reported a cache hit:\n%s", cold)
	}
	warm := runV()
	for _, want := range []string{"cache hit", "cache.hits"} {
		if !strings.Contains(warm, want) {
			t.Errorf("warm -v output missing %q:\n%s", want, warm)
		}
	}
	if strings.Contains(warm, "cache miss") {
		t.Errorf("warm run reported a cache miss:\n%s", warm)
	}
}

// TestProfileUsesStudyOptions — profile must honour the global flags like
// every study command: -cache serves the second run from the entry the
// first stored (same table on stdout), and -v reports which it was.
func TestProfileUsesStudyOptions(t *testing.T) {
	dir := t.TempDir()
	profile := func() (string, string) {
		var out, errOut bytes.Buffer
		if err := run([]string{"-v", "-cache", dir, "profile", "pb-sgemm"}, &out, &errOut); err != nil {
			t.Fatal(err)
		}
		return out.String(), errOut.String()
	}
	coldOut, coldErr := profile()
	warmOut, warmErr := profile()
	if coldOut != warmOut {
		t.Errorf("warm profile differs from cold:\n%s\nvs\n%s", warmOut, coldOut)
	}
	if !strings.Contains(coldErr, "cactus: pb-sgemm:") || !strings.Contains(coldErr, "cache miss") {
		t.Errorf("cold -v output lacks the workload's cache-miss line:\n%s", coldErr)
	}
	if !strings.Contains(warmErr, "cactus: pb-sgemm:") || !strings.Contains(warmErr, "cache hit") {
		t.Errorf("warm -v output lacks the workload's cache-hit line:\n%s", warmErr)
	}
}

// TestTraceFlagOnStudy — -trace FILE on a study command must write a valid
// trace containing both tracks.
func TestTraceFlagOnStudy(t *testing.T) {
	file := filepath.Join(t.TempDir(), "study.json")
	if err := run([]string{"-no-cache", "-j", "2", "-trace", file, "run", "pb-sgemm", "pb-spmv"},
		io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := testutil.ReadChrome(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("-trace output is not valid Chrome trace JSON: %v", err)
	}
	pids := map[int]bool{}
	characterize := 0
	for _, ev := range tr.TraceEvents {
		pids[ev.PID] = true
		if ev.Ph == "X" && ev.Cat == "characterize" {
			characterize++
		}
	}
	if !pids[1] || !pids[2] {
		t.Errorf("study trace missing a track: pids %v", pids)
	}
	if characterize != 2 {
		t.Errorf("study trace has %d characterize spans, want 2", characterize)
	}
}

// TestNoCacheFlag — -no-cache must keep working without touching any cache
// directory.
func TestNoCacheFlag(t *testing.T) {
	if err := run([]string{"-no-cache", "figure", "1"}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// badSpecs launches kernels that break the device's spec limits: two
// launches of a block size that is not a warp multiple, then one block
// larger than any SM holds.
type badSpecs struct{}

func (badSpecs) Name() string             { return "bad-specs" }
func (badSpecs) Abbr() string             { return "BAD" }
func (badSpecs) Suite() workloads.Suite   { return workloads.Cactus }
func (badSpecs) Domain() workloads.Domain { return workloads.Scientific }

func (badSpecs) Run(s *profiler.Session) error {
	var mix isa.Mix
	mix.Add(isa.FP32, 1<<10)
	for _, spec := range []gpu.KernelSpec{
		{Name: "ragged", Grid: gpu.D1(8), Block: gpu.D1(100), Mix: mix},
		{Name: "ragged", Grid: gpu.D1(8), Block: gpu.D1(100), Mix: mix},
		{Name: "huge", Grid: gpu.D1(8), Block: gpu.D1(2048), Mix: mix},
	} {
		if _, err := s.Launch(spec); err != nil {
			return err
		}
	}
	return nil
}

// TestLintReportsViolations — one line per (kernel, rule) in order of
// first appearance, with its first detail and offending-launch count, then
// the summary, and an error for the nonzero exit.
func TestLintReportsViolations(t *testing.T) {
	var out, errOut bytes.Buffer
	err := lintWorkloads([]workloads.Workload{badSpecs{}}, gpu.RTX3080(), &out, &errOut)
	if err == nil || err.Error() != "lint: 4 kernel-spec violation(s)" {
		t.Errorf("err = %v, want the 4-violation lint error", err)
	}
	want := `cactus/BAD: kernel ragged: block-warp: block size 100 is not a multiple of WarpSize 32; the trailing partial warp wastes 28 lanes per block (2 launches)
cactus/BAD: kernel huge: validate: gpu: kernel huge: block size 2048 exceeds 1024 (1 launches)
cactus/BAD: kernel huge: block-limit: block size 2048 exceeds the device limit of 1024 threads per block (1 launches)
cactus/BAD: kernel huge: occupancy: zero theoretical occupancy: warps demand means not even one block fits on an SM (1 launches)
`
	if out.String() != want {
		t.Errorf("lint report:\n%s\nwant:\n%s", out.String(), want)
	}
	if got, want := errOut.String(), "cactus lint: 1 workloads, 3 launches audited, 4 violations\n"; got != want {
		t.Errorf("summary = %q, want %q", got, want)
	}
}

// oneShotRuns are the commands that run their workloads outside a study:
// export, audit and explain -launches.
var oneShotRuns = [][]string{
	{"export", "pb-sgemm"},
	{"audit", "pb-sgemm"},
	{"explain", "-launches", "pb-sgemm"},
}

// checkOneShotObserved runs args under -v and -trace and checks that the
// run reached both sinks: the trace holds events and the counters saw the
// launches.
func checkOneShotObserved(t *testing.T, args ...string) {
	t.Helper()
	file := filepath.Join(t.TempDir(), "t.json")
	var errOut bytes.Buffer
	if err := run(append([]string{"-v", "-trace", file, "-no-cache"}, args...), io.Discard, &errOut); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := testutil.ReadChrome(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("-trace output is not valid Chrome trace JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Errorf("%v: -trace wrote no events", args)
	}
	if !strings.Contains(errOut.String(), "gpu.launches") {
		t.Errorf("%v: -v counters saw no launches:\n%s", args, errOut.String())
	}
}

func TestExportHonoursObservability(t *testing.T) { checkOneShotObserved(t, oneShotRuns[0]...) }

func TestAuditHonoursObservability(t *testing.T) { checkOneShotObserved(t, oneShotRuns[1]...) }

func TestExplainLaunchesHonoursObservability(t *testing.T) {
	checkOneShotObserved(t, oneShotRuns[2]...)
}

// TestOneShotOutputUnaffectedByObservability — the one-shot commands'
// stdout (an exported trace, audit violations, the launch-level tree) is
// the same bytes with -trace, -v and -metrics on as with them off.
func TestOneShotOutputUnaffectedByObservability(t *testing.T) {
	dir := t.TempDir()
	for _, args := range oneShotRuns {
		var plain, observed bytes.Buffer
		if err := run(append([]string{"-no-cache"}, args...), &plain, io.Discard); err != nil {
			t.Fatal(err)
		}
		observe := []string{"-no-cache", "-v", "-trace", filepath.Join(dir, "t.json"), "-metrics", filepath.Join(dir, "m.txt")}
		if err := run(append(observe, args...), &observed, io.Discard); err != nil {
			t.Fatal(err)
		}
		if plain.String() != observed.String() {
			t.Errorf("%v: stdout differs with observability enabled (%d vs %d bytes)", args, plain.Len(), observed.Len())
		}
	}
}
