package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestExplainCommand — the text report carries every tree level and all
// four bottleneck categories, and two runs are byte-identical (the
// modeled track is deterministic).
func TestExplainCommand(t *testing.T) {
	explain := func() string {
		var out bytes.Buffer
		if err := run([]string{"-no-cache", "explain", "GMS", "pb-sgemm"}, &out, io.Discard); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	got := explain()
	for _, want := range []string{
		"NVIDIA GeForce RTX 3080", "GMS", "pb-sgemm", "mysgemmNT",
		"dram", "compute", "latency", "overhead", "launches",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("explain output missing %q:\n%s", want, got)
		}
	}
	if got != explain() {
		t.Error("two explain runs differ byte for byte")
	}
}

// TestExplainJSON — -json emits a parseable tree whose shares sum to 1 at
// the root and which descends study → workload → phase.
func TestExplainJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-no-cache", "explain", "-json", "pb-sgemm"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	type node struct {
		Level    string             `json:"level"`
		Name     string             `json:"name"`
		Shares   map[string]float64 `json:"shares"`
		Children []node             `json:"children"`
	}
	var root node
	if err := json.Unmarshal(out.Bytes(), &root); err != nil {
		t.Fatalf("explain -json output is not valid JSON: %v\n%s", err, out.String())
	}
	if root.Level != "study" || len(root.Children) != 1 || root.Children[0].Level != "workload" {
		t.Errorf("tree shape = %+v", root)
	}
	var sum float64
	for _, v := range root.Shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("root shares sum to %g, want 1", sum)
	}
}

// TestExplainLaunches — -launches descends to individual launch leaves.
func TestExplainLaunches(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-no-cache", "explain", "-launches", "pb-sgemm"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mysgemmNT#0") {
		t.Errorf("launch-depth output has no launch leaf:\n%s", out.String())
	}
}

// TestMetricsFlag — -metrics FILE writes a Prometheus text snapshot of
// the study's counters and histograms.
func TestMetricsFlag(t *testing.T) {
	file := filepath.Join(t.TempDir(), "metrics.txt")
	var errOut bytes.Buffer
	if err := run([]string{"-no-cache", "-metrics", file, "run", "pb-sgemm"}, io.Discard, &errOut); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	for _, want := range []string{
		"# TYPE cactus_gpu_launches gauge",
		"# TYPE cactus_workload_modeled_seconds histogram",
		`cactus_workload_modeled_seconds_bucket{le="+Inf"} 1`,
		"cactus_kernel_l1_hit_rate_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics snapshot missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(errOut.String(), "wrote metrics snapshot") {
		t.Errorf("stderr lacks the snapshot notice: %q", errOut.String())
	}
}

// TestLogFlag — -log json emits exactly one structured completion event
// per workload on stderr, with the same keys whatever the worker count.
func TestLogFlag(t *testing.T) {
	var errOut bytes.Buffer
	if err := run([]string{"-no-cache", "-j", "2", "-log", "json", "run", "pb-sgemm", "pb-spmv"}, io.Discard, &errOut); err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{"cache", "kernels", "level", "modeled_ms", "msg", "time", "wall_ms", "workload"}
	events := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(errOut.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("-log json line is not JSON: %q: %v", line, err)
		}
		if ev["msg"] != "workload characterized" {
			continue
		}
		keys := make([]string, 0, len(ev))
		for k := range ev {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !reflect.DeepEqual(keys, wantKeys) {
			t.Errorf("completion event keys = %v, want %v", keys, wantKeys)
		}
		events[fmt.Sprint(ev["workload"])]++
	}
	if want := map[string]int{"pb-sgemm": 1, "pb-spmv": 1}; !reflect.DeepEqual(events, want) {
		t.Errorf("completion events per workload = %v, want %v:\n%s", events, want, errOut.String())
	}
}

// TestStudyOutputUnaffectedByObservability — the acceptance criterion
// that observability is an overlay: the same command with every
// observability surface enabled produces byte-identical stdout.
func TestStudyOutputUnaffectedByObservability(t *testing.T) {
	file := filepath.Join(t.TempDir(), "m.txt")
	var plain, observed bytes.Buffer
	if err := run([]string{"-no-cache", "run", "pb-sgemm", "pb-spmv"}, &plain, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-no-cache", "-v", "-log", "json", "-metrics", file, "run", "pb-sgemm", "pb-spmv"},
		&observed, io.Discard); err != nil {
		t.Fatal(err)
	}
	if plain.String() != observed.String() {
		t.Errorf("stdout differs with observability enabled:\n--- plain\n%s--- observed\n%s",
			plain.String(), observed.String())
	}
}
