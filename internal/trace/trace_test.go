package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/graphx"
	"repro/internal/profiler"
)

// Read parses a trace previously written by Export: the round-trip oracle
// for Export.
func Read(r io.Reader) (Header, []Launch, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var h Header
	if err := dec.Decode(&h); err != nil {
		return h, nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if h.Format != "cactus-trace" {
		return h, nil, fmt.Errorf("trace: unknown format %q", h.Format)
	}
	if h.Version != FormatVersion {
		return h, nil, fmt.Errorf("trace: version %d, want %d", h.Version, FormatVersion)
	}
	var out []Launch
	for {
		var l Launch
		if err := dec.Decode(&l); err == io.EOF {
			break
		} else if err != nil {
			return h, nil, fmt.Errorf("trace: reading launch %d: %w", len(out), err)
		}
		out = append(out, l)
	}
	if h.Launches != len(out) {
		return h, nil, fmt.Errorf("trace: header declares %d launches, read %d", h.Launches, len(out))
	}
	return h, out, nil
}

// TotalWarpInsts sums the instruction counts of parsed launches.
func TotalWarpInsts(launches []Launch) uint64 {
	var t uint64
	for _, l := range launches {
		for _, n := range l.Insts {
			t += n
		}
	}
	return t
}

func TestExportReadRoundTrip(t *testing.T) {
	cfg := gpu.RTX3080()
	dev, err := gpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := profiler.NewSession(dev)
	g, err := graphx.RoadGrid(32, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := graphx.GunrockBFS(g, 0, graphx.BFSConfig{}, sess); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := Export(&buf, "GRU-mini", cfg, sess); err != nil {
		t.Fatal(err)
	}
	h, launches, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Workload != "GRU-mini" || h.Device != cfg.Name {
		t.Errorf("header %+v", h)
	}
	if h.PeakGIPS != cfg.PeakGIPS() {
		t.Error("header roofs")
	}
	if len(launches) != sess.LaunchCount() {
		t.Fatalf("round trip %d launches, want %d", len(launches), sess.LaunchCount())
	}
	// Sequence numbers and instruction totals preserved.
	for i, l := range launches {
		if l.Seq != i {
			t.Fatalf("launch %d has seq %d", i, l.Seq)
		}
		if l.Kernel == "" || l.TimeNs <= 0 {
			t.Fatalf("launch %d incomplete: %+v", i, l)
		}
	}
	if got := TotalWarpInsts(launches); got != uint64(sess.TotalWarpInstructions()) {
		t.Errorf("trace insts %d, session %d", got, sess.TotalWarpInstructions())
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, _, err := Read(strings.NewReader("not json")); err == nil {
		t.Error("garbage should fail")
	}
	if _, _, err := Read(strings.NewReader(`{"format":"other","version":1}`)); err == nil {
		t.Error("wrong format should fail")
	}
	if _, _, err := Read(strings.NewReader(`{"format":"cactus-trace","version":99}`)); err == nil {
		t.Error("wrong version should fail")
	}
	// Truncated: header declares launches that never arrive.
	if _, _, err := Read(strings.NewReader(`{"format":"cactus-trace","version":1,"launches":3}`)); err == nil {
		t.Error("truncated trace should fail")
	}
}
