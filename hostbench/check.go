package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
)

// referenceJSON holds the recorded outputs every run is checked against.
// Regenerate it only when the program's output is meant to change:
//
//	bash hostbench/run.sh --record hostbench/reference.json
//
//go:embed reference.json
var referenceJSON []byte

// simCounts are the simulated statistics of a set of profiles. They do not
// depend on host speed, so a change that moves them changed the model.
type simCounts struct {
	Profiles  int     `json:"profiles"`
	Launches  int64   `json:"launches"`
	WarpInsts uint64  `json:"warp_insts"`
	ModeledMs float64 `json:"modeled_ms"`
}

// reference is the decoded reference.json.
type reference struct {
	// StudyOutput is the digest of the rendered `cactus all` output on
	// rtx3080, and StudySim its 42 profiles' statistics.
	StudyOutput string    `json:"study_all_output_sha256"`
	StudySim    simCounts `json:"study_all_sim"`
	// ServeSim covers the 64 primed baseline profiles; ServeBodies maps
	// each distinct serve_mix query (query.key) to its body digest.
	ServeSim    simCounts         `json:"serve_mix_sim"`
	ServeBodies map[string]string `json:"serve_mix_bodies"`
}

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reading reference.json: %w", err)
	}
	return &ref, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// outputCheck verifies repeated outputs against one reference digest. The
// first output is hashed; later ones are compared byte for byte with the
// first verified output, which keeps the check cheap inside a timed loop.
type outputCheck struct {
	want     string
	verified []byte
}

func (c *outputCheck) ok(out []byte) bool {
	if c.verified != nil {
		return bytes.Equal(out, c.verified)
	}
	if digest(out) != c.want {
		return false
	}
	c.verified = bytes.Clone(out)
	return true
}

// countSim sums the simulated statistics of profiles. Launches count every
// kernel invocation, so the figure holds for cache-loaded profiles too.
func countSim(profiles []*core.Profile) simCounts {
	var c simCounts
	for _, p := range profiles {
		c.Profiles++
		c.WarpInsts += uint64(p.TotalWarpInsts)
		c.ModeledMs += p.TotalTime.Millis()
		for _, k := range p.Kernels {
			c.Launches += int64(k.Invocations)
		}
	}
	return c
}

// recordReference measures nothing: it produces every workload's reference
// output once and writes reference.json to cfg.record.
func recordReference(cfg config, errOut io.Writer) error {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "record-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var ref reference
	fmt.Fprintln(errOut, "hostbench: recording study_all")
	if ref.StudyOutput, ref.StudySim, err = recordStudy(dir); err != nil {
		return err
	}
	fmt.Fprintln(errOut, "hostbench: recording serve_mix")
	if ref.ServeSim, ref.ServeBodies, err = recordServe(dir); err != nil {
		return err
	}
	data, err := json.MarshalIndent(&ref, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(errOut, "hostbench: study_all %+v, serve_mix %+v with %d bodies\n",
		ref.StudySim, ref.ServeSim, len(ref.ServeBodies))
	return os.WriteFile(cfg.record, append(data, '\n'), 0o644)
}
