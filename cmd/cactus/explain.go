package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// explainCmd implements `cactus explain [-json] [-launches] [-depth N]
// [abbr ...]`: the top-down attribution report. It characterizes the given
// workloads (all of them by default), builds the study → workload → phase
// attribution tree, verifies the sum-to-1 identity at every node, and
// renders the tree as aligned text or JSON. With -launches it re-simulates
// each workload to descend one further level, to individual launches
// (bypassing the profile cache, which stores no per-launch data).
func explainCmd(rest []string, cat *workloads.Catalog, cfg gpu.DeviceConfig,
	opts core.StudyOptions, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("cactus explain", flag.ContinueOnError)
	fs.SetOutput(errOut)
	asJSON := fs.Bool("json", false, "render the attribution tree as JSON")
	launches := fs.Bool("launches", false, "descend to individual launches (re-simulates, ignoring the cache)")
	depth := fs.Int("depth", 0, "limit the text rendering to this many levels (0 = all)")
	if err := parseFlags(fs, rest[1:]); err != nil {
		return err
	}
	ws, err := selectWorkloads(cat, fs.Args())
	if err != nil {
		return err
	}

	var root *telemetry.AttributionNode
	if *launches {
		children := make([]*telemetry.AttributionNode, 0, len(ws))
		for i, w := range ws {
			sess, err := core.RunWorkload(w, cfg, opts.Tracer, opts.Counters, i)
			if err != nil {
				return err
			}
			children = append(children, core.AttributeSession(w.Abbr(), sess))
		}
		root = telemetry.AggregateNode(telemetry.LevelStudy, cfg.Name, children)
	} else {
		st, err := core.NewStudyWith(cfg, opts, ws...)
		if err != nil {
			return err
		}
		root = core.Attribute(st)
	}
	liveAttribution.Store(root)

	if violations := telemetry.CheckAttribution(root, 0); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(errOut, "cactus explain:", v)
		}
		return fmt.Errorf("explain: %d attribution-identity violation(s)", len(violations))
	}
	if *asJSON {
		return telemetry.WriteAttributionJSON(out, root)
	}
	return telemetry.WriteAttributionText(out, root, *depth)
}
