// Attribution tree: the runtime realization of the paper's top-down
// methodology. Where the figures explain a finished study offline, the
// attribution tree explains it live — every modeled second descends from
// the whole study through workloads and phases (all invocations of one
// kernel) down to individual launches, and at every node the time is split
// into four bottleneck categories whose shares provably sum to 1. The
// category shares derive from the typed stall/utilization fields the device
// model already produces; CheckAttribution is the identity check `cactus
// explain` enforces on whole trees, as gpu.CheckResult does on every launch.
package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/units"
)

// Bottleneck is one top-down attribution category: every modeled second of
// a node belongs to exactly one.
type Bottleneck int

const (
	// BottleneckDRAM is time attributed to DRAM bandwidth and memory-access
	// stalls (the memory-intensive side of the roofline).
	BottleneckDRAM Bottleneck = iota
	// BottleneckCompute is time attributed to issue and functional-unit
	// throughput — the pipeline actually retiring work.
	BottleneckCompute
	// BottleneckLatency is time attributed to latency the warp scheduler
	// could not hide: execution dependencies and synchronization stalls.
	BottleneckLatency
	// BottleneckOverhead is fixed kernel-launch overhead.
	BottleneckOverhead

	// NumBottlenecks is the number of attribution categories.
	NumBottlenecks
)

var bottleneckNames = [NumBottlenecks]string{"dram", "compute", "latency", "overhead"}

// String returns the category's stable identifier ("dram", "compute",
// "latency", "overhead") used in text, JSON, and metric output.
func (b Bottleneck) String() string {
	if b >= 0 && b < NumBottlenecks {
		return bottleneckNames[b]
	}
	return fmt.Sprintf("bottleneck(%d)", int(b))
}

// Bottlenecks returns all categories in declaration order.
func Bottlenecks() []Bottleneck {
	return []Bottleneck{BottleneckDRAM, BottleneckCompute, BottleneckLatency, BottleneckOverhead}
}

// BottleneckShares splits a node's modeled time across the categories.
// A well-formed value sums to 1 within AttributionTol.
type BottleneckShares [NumBottlenecks]units.Fraction

// Sum returns the total of all category shares; 1 within AttributionTol
// for every share vector produced by AttributeStalls or aggregation.
func (s BottleneckShares) Sum() float64 {
	var t float64
	for _, v := range s {
		t += v.Float()
	}
	return t
}

// AttributionTol is the identity tolerance: at every tree level the four
// shares must sum to 1 within this bound. It matches the model's relTol —
// only floating-point association error is forgiven.
const AttributionTol = 1e-9

// AttributeStalls derives bottleneck shares for a span of modeled time
// from the stall ratios the device model reports. The launch overhead is
// carved out first; the remainder is split proportionally to the stall
// attribution: memory stalls feed the DRAM category, execution-dependency
// and synchronization stalls feed latency, and pipe stalls plus all
// non-stalled issue slots feed compute. The compute share is computed as
// the remainder to 1, so the identity Σ shares = 1 holds to within
// floating-point association error regardless of the inputs.
func AttributeStalls(time, overhead units.Seconds, stallMem, stallPipe, stallExec, stallSync units.Fraction) BottleneckShares {
	var s BottleneckShares
	if time <= 0 {
		// A span with no modeled time is pure overhead by convention; the
		// identity still holds.
		s[BottleneckOverhead] = 1
		return s
	}
	oh := units.Share(overhead, time)
	rem := 1 - oh.Float()
	wMem := stallMem.Clamp01()
	wLat := stallExec.Clamp01() + stallSync.Clamp01()
	wPipe := stallPipe.Clamp01()
	idle := 1 - (wMem + wLat + wPipe)
	if idle < 0 {
		idle = 0
	}
	wComp := wPipe + idle
	wSum := wMem + wLat + wComp // >= 1 when stalls sum below 1, always > 0
	dram := units.Clamp01(rem * wMem / wSum)
	lat := units.Clamp01(rem * wLat / wSum)
	comp := units.Clamp01(1 - oh.Float() - dram.Float() - lat.Float())
	s[BottleneckDRAM] = dram
	s[BottleneckLatency] = lat
	s[BottleneckCompute] = comp
	s[BottleneckOverhead] = oh
	return s
}

// Attribution tree levels, root to leaf.
const (
	LevelStudy    = "study"
	LevelWorkload = "workload"
	LevelPhase    = "phase" // all invocations of one kernel within a workload
	LevelLaunch   = "launch"
)

// AttributionNode is one span of the attribution tree. Its modeled time is
// the sum of its children's (leaves carry their own), and its shares sum
// to 1 within AttributionTol at every level.
type AttributionNode struct {
	// Level is the node's tree level (LevelStudy .. LevelLaunch).
	Level string
	// Name identifies the span: the workload abbreviation, the kernel name,
	// or the launch sequence label.
	Name string
	// Time is the node's modeled GPU time.
	Time units.Seconds
	// Launches is the number of kernel launches under this node.
	Launches int
	// Shares is the node's bottleneck split.
	Shares BottleneckShares
	// Children are the next level down, in dominance (or issue) order.
	Children []*AttributionNode
}

// AggregateNode rolls children up into one parent node: time and launch
// counts sum, and each category share is the duration-weighted mean of the
// children's — so a parent's DRAM seconds equal the sum of its children's
// DRAM seconds up to floating-point association, and the Σ shares = 1
// identity is inherited from the children.
func AggregateNode(level, name string, children []*AttributionNode) *AttributionNode {
	n := &AttributionNode{Level: level, Name: name, Children: children}
	weights := make([]units.Seconds, len(children))
	vals := make([]units.Fraction, len(children))
	for i, c := range children {
		n.Time += c.Time
		n.Launches += c.Launches
		weights[i] = c.Time
	}
	for _, b := range Bottlenecks() {
		for i, c := range children {
			vals[i] = c.Shares[b]
		}
		n.Shares[b] = units.WeightedMean(vals, weights)
	}
	return n
}

// AttributionViolation is one node whose shares fail the sum-to-1 identity.
type AttributionViolation struct {
	// Path is the slash-joined node path from the root.
	Path string
	// Sum is the offending share total.
	Sum float64
}

func (v AttributionViolation) String() string {
	return fmt.Sprintf("%s: shares sum to %.12g, want 1", v.Path, v.Sum)
}

// CheckAttribution walks the tree and returns every node whose bottleneck
// shares do not sum to 1 within AttributionTol — the identity check behind
// `cactus explain`.
func CheckAttribution(root *AttributionNode) []AttributionViolation {
	var out []AttributionViolation
	var walk func(n *AttributionNode, path string)
	walk = func(n *AttributionNode, path string) {
		if sum := n.Shares.Sum(); sum < 1-AttributionTol || sum > 1+AttributionTol {
			out = append(out, AttributionViolation{Path: path, Sum: sum})
		}
		for _, c := range n.Children {
			walk(c, path+"/"+c.Name)
		}
	}
	if root != nil {
		walk(root, root.Name)
	}
	return out
}

// WriteAttributionText renders the tree as aligned, indented text: one line
// per node with its modeled time, launch count, and percentage split.
// maxDepth limits descent (0 = all levels).
func WriteAttributionText(w io.Writer, root *AttributionNode, maxDepth int) error {
	if root == nil {
		return nil
	}
	// First pass: the widest indented name, so the share columns align.
	width := 0
	var measure func(n *AttributionNode, depth int)
	measure = func(n *AttributionNode, depth int) {
		if l := 2*depth + len(n.Name); l > width {
			width = l
		}
		if maxDepth > 0 && depth+1 >= maxDepth {
			return
		}
		for _, c := range n.Children {
			measure(c, depth+1)
		}
	}
	measure(root, 0)

	bw := bufio.NewWriter(w)
	var render func(n *AttributionNode, depth int) error
	render = func(n *AttributionNode, depth int) error {
		name := strings.Repeat("  ", depth) + n.Name
		if _, err := fmt.Fprintf(bw, "%-*s  %12.4f ms  %6d launches ", width, name, n.Time.Millis(), n.Launches); err != nil {
			return err
		}
		for _, b := range Bottlenecks() {
			if _, err := fmt.Fprintf(bw, " %s %5.1f%%", b, 100*n.Shares[b].Clamp01()); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw); err != nil {
			return err
		}
		if maxDepth > 0 && depth+1 >= maxDepth {
			return nil
		}
		for _, c := range n.Children {
			if err := render(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := render(root, 0); err != nil {
		return err
	}
	return bw.Flush()
}

// attributionJSON is the serialized shape of one attribution node. Shares
// cross this JSON boundary through Fraction.Clamp01, so NaN or
// out-of-range values cannot reach the encoder.
type attributionJSON struct {
	Level     string             `json:"level"`
	Name      string             `json:"name"`
	ModeledMs float64            `json:"modeled_ms"`
	Launches  int                `json:"launches"`
	Shares    map[string]float64 `json:"shares"`
	Children  []attributionJSON  `json:"children,omitempty"`
}

func attributionDTO(n *AttributionNode) attributionJSON {
	out := attributionJSON{
		Level:     n.Level,
		Name:      n.Name,
		ModeledMs: n.Time.Millis(),
		Launches:  n.Launches,
		Shares:    make(map[string]float64, NumBottlenecks),
	}
	for _, b := range Bottlenecks() {
		out.Shares[b.String()] = n.Shares[b].Clamp01()
	}
	for _, c := range n.Children {
		out.Children = append(out.Children, attributionDTO(c))
	}
	return out
}

// WriteAttributionJSON writes the tree as indented JSON (map keys marshal
// sorted, so output is deterministic).
func WriteAttributionJSON(w io.Writer, root *AttributionNode) error {
	if root == nil {
		_, err := io.WriteString(w, "null\n")
		return err
	}
	data, err := json.MarshalIndent(attributionDTO(root), "", "\t")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
