// Package workloads defines the common interface every benchmark in this
// repository implements — the ten Cactus applications as well as the
// Parboil, Rodinia, and Tango baselines — plus a catalog type for grouping
// and lookup. A workload's Run method executes the application functionally
// and issues its kernel launches into a profiling session; everything the
// characterization library consumes derives from the recorded launches.
package workloads

import (
	"fmt"
	"sort"

	"repro/internal/profiler"
)

// Suite identifies the benchmark suite a workload belongs to.
type Suite string

// The suites studied in the paper.
const (
	Cactus  Suite = "cactus"
	Parboil Suite = "parboil"
	Rodinia Suite = "rodinia"
	Tango   Suite = "tango"
)

// Domain identifies the application domain (Table I's left column for
// Cactus; the baseline suites use their own domains).
type Domain string

// Domains used across the catalog.
const (
	Molecular  Domain = "molecular"
	Graph      Domain = "graph"
	MachineL   Domain = "machine-learning"
	Scientific Domain = "scientific"
)

// Workload is one runnable benchmark.
type Workload interface {
	// Name returns the full workload name ("Gromacs NPT equilibration").
	Name() string
	// Abbr returns the paper's abbreviation ("GMS").
	Abbr() string
	// Suite returns the owning benchmark suite.
	Suite() Suite
	// Domain returns the application domain.
	Domain() Domain
	// Run executes the workload, issuing every kernel launch into s.
	Run(s *profiler.Session) error
}

// Catalog is an ordered collection of workloads with lookup by abbreviation.
type Catalog struct {
	byAbbr map[string]Workload
	order  []Workload
}

// NewCatalog builds a catalog from the given workloads. Duplicate
// abbreviations are an error: the abbreviation is the lookup key everywhere.
func NewCatalog(ws ...Workload) (*Catalog, error) {
	c := &Catalog{byAbbr: make(map[string]Workload, len(ws))}
	for _, w := range ws {
		if err := c.Add(w); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Add appends a workload to the catalog.
func (c *Catalog) Add(w Workload) error {
	abbr := w.Abbr()
	if abbr == "" {
		return fmt.Errorf("workloads: %q has empty abbreviation", w.Name())
	}
	if _, dup := c.byAbbr[abbr]; dup {
		return fmt.Errorf("workloads: duplicate abbreviation %q", abbr)
	}
	c.byAbbr[abbr] = w
	c.order = append(c.order, w)
	return nil
}

// All returns the workloads in insertion order.
func (c *Catalog) All() []Workload {
	return append([]Workload(nil), c.order...)
}

// BySuite returns the workloads of one suite, in insertion order.
func (c *Catalog) BySuite(s Suite) []Workload {
	var out []Workload
	for _, w := range c.order {
		if w.Suite() == s {
			out = append(out, w)
		}
	}
	return out
}

// Lookup finds a workload by abbreviation.
func (c *Catalog) Lookup(abbr string) (Workload, error) {
	w, ok := c.byAbbr[abbr]
	if !ok {
		avail := make([]string, 0, len(c.byAbbr))
		for a := range c.byAbbr {
			avail = append(avail, a)
		}
		sort.Strings(avail)
		return nil, fmt.Errorf("workloads: unknown workload %q (have %v)", abbr, avail)
	}
	return w, nil
}
