package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/units"
)

// TestObservabilityEndpoints — the -pprof introspection surface serves the
// live registry as Prometheus text exposition at /metrics and the
// attribution tree at /debug/attribution in JSON or text, next to the
// pprof index. The snapshot has no other rendering: /debug/counters and
// /debug/vars answer 404.
func TestObservabilityEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counters().Add(telemetry.CtrLaunches, 7)
	reg.Histogram(telemetry.HistWorkloadModeledSeconds).Observe(0.004)
	liveRegistry.Store(reg)
	leaf := &telemetry.AttributionNode{
		Level: telemetry.LevelLaunch, Name: "k#0",
		Time: units.Seconds(1e-3), Launches: 1,
		Shares: telemetry.AttributeStalls(units.Seconds(1e-3), units.Seconds(2.5e-6), 0.4, 0.1, 0.1, 0.05),
	}
	liveAttribution.Store(telemetry.AggregateNode(telemetry.LevelStudy, "test-device", []*telemetry.AttributionNode{leaf}))

	registerObservability()
	srv := httptest.NewServer(http.DefaultServeMux)
	defer srv.Close()
	getStatus := func(path string, wantStatus int) (body, contentType string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, wantStatus)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw), resp.Header.Get("Content-Type")
	}
	get := func(path string) (body, contentType string) {
		t.Helper()
		return getStatus(path, http.StatusOK)
	}

	metrics, ct := get("/metrics")
	if ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	for _, want := range []string{
		"cactus_gpu_launches 7",
		"# TYPE cactus_workload_modeled_seconds histogram",
		`cactus_workload_modeled_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	if index, _ := get("/debug/pprof/"); !strings.Contains(index, "goroutine") {
		t.Errorf("/debug/pprof/ index lists no goroutine profile:\n%s", index)
	}

	for _, gone := range []string{"/debug/counters", "/debug/counters?format=json", "/debug/vars"} {
		getStatus(gone, http.StatusNotFound)
	}

	attr, ct := get("/debug/attribution")
	if ct != "application/json" {
		t.Errorf("/debug/attribution Content-Type = %q", ct)
	}
	var root struct {
		Level    string             `json:"level"`
		Shares   map[string]float64 `json:"shares"`
		Children []json.RawMessage  `json:"children"`
	}
	if err := json.Unmarshal([]byte(attr), &root); err != nil {
		t.Fatalf("/debug/attribution is not valid JSON: %v\n%s", err, attr)
	}
	if root.Level != "study" || len(root.Children) != 1 {
		t.Errorf("attribution tree = %+v", root)
	}
	var sum float64
	for _, v := range root.Shares {
		sum += v
	}
	if sum < 1-1e-9 || sum > 1+1e-9 {
		t.Errorf("attribution root shares sum to %g, want 1", sum)
	}
	attrText, _ := get("/debug/attribution?format=text")
	if !strings.Contains(attrText, "test-device") || !strings.Contains(attrText, "k#0") {
		t.Errorf("/debug/attribution?format=text rendering:\n%s", attrText)
	}
}
