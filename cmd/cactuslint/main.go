// Command cactuslint runs the repository's custom static analyzers (see
// internal/lint) over the given package patterns and prints findings as
//
//	file:line: analyzer: message
//
// exiting nonzero when there is any finding. Suppress a finding with a
// comment on the same line or the line above:
//
//	//lint:ignore <analyzer> <reason>
//
// Usage:
//
//	cactuslint [flags] [packages]
//
// With no packages, ./... is analyzed.
//
// Flags:
//
//	-run a,b         run only the named analyzers (default: all)
//	-json            print findings (or suppressions, or the -list table) as JSON, one per line
//	-list            print every analyzer with its description and scope, sorted by name, and exit
//	-suppressions    list every //lint:ignore directive instead of linting
//
// An unknown analyzer name given to -run is a usage error: exit code 2,
// nothing analyzed.
//
// With -json each finding is one object per line, for tooling (the GitHub
// Actions problem matcher in .github/cactuslint-matcher.json consumes it):
//
//	{"file":"internal/gpu/launch.go","line":42,"analyzer":"unitsafety","message":"..."}
//
// -suppressions inventories the accepted exceptions: every //lint:ignore
// in the analyzed packages, as deterministic `file:line: analyzer: reason`
// lines (or JSON objects with -json). The suppression budget test in
// internal/lint pins the total, so adding an exception is a reviewed,
// counted act.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cactuslint:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run executes the linter and returns the process exit code: 0 clean, 1
// findings. Errors (bad flags, packages that do not type-check) are returned
// for exit code 2.
func run(args []string, out, errOut io.Writer) (int, error) {
	fs := flag.NewFlagSet("cactuslint", flag.ContinueOnError)
	fs.SetOutput(errOut)
	runNames := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	asJSON := fs.Bool("json", false, "print findings (or suppressions, or the -list table) as JSON, one per line")
	list := fs.Bool("list", false, "print every analyzer with its description and scope and exit")
	suppressions := fs.Bool("suppressions", false, "list every //lint:ignore directive instead of linting")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}

	analyzers := lint.Analyzers()
	if *list {
		return listAnalyzers(out, analyzers, *asJSON)
	}
	if *runNames != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*runNames, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				return 2, fmt.Errorf("unknown analyzer %q", name)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		return 2, err
	}
	if len(pkgs) == 0 {
		// `go list` warns but exits zero on an unmatched pattern; an empty
		// analysis must not read as a clean one.
		return 2, fmt.Errorf("no packages matched %s", strings.Join(patterns, " "))
	}

	wd, _ := os.Getwd()
	if *suppressions {
		return listSuppressions(out, pkgs, wd, *asJSON)
	}
	findings := lint.Run(pkgs, analyzers)
	for _, f := range findings {
		pos := relTo(wd, f.Pos.Filename)
		if *asJSON {
			if err := printJSON(out, pos, f); err != nil {
				return 2, err
			}
			continue
		}
		fmt.Fprintf(out, "%s:%d: %s: %s\n", pos, f.Pos.Line, f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		fmt.Fprintf(errOut, "cactuslint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		return 1, nil
	}
	return 0, nil
}

// listAnalyzers prints the analyzer table, sorted by name: one
// `name  scope  description` row per analyzer, or one JSON object per
// line with -json.
func listAnalyzers(out io.Writer, analyzers []*lint.Analyzer, asJSON bool) (int, error) {
	sorted := make([]*lint.Analyzer, len(analyzers))
	copy(sorted, analyzers)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, a := range sorted {
		scope := a.ScopeDoc
		if scope == "" {
			scope = "all packages"
		}
		if asJSON {
			data, err := json.Marshal(jsonAnalyzer{Name: a.Name, Scope: scope, Doc: a.Doc})
			if err != nil {
				return 2, err
			}
			fmt.Fprintf(out, "%s\n", data)
			continue
		}
		fmt.Fprintf(out, "%-16s scope: %s\n%-16s %s\n", a.Name, scope, "", a.Doc)
	}
	return 0, nil
}

// jsonAnalyzer is the -list -json wire shape.
type jsonAnalyzer struct {
	Name  string `json:"name"`
	Scope string `json:"scope"`
	Doc   string `json:"doc"`
}

// listSuppressions prints the //lint:ignore inventory of pkgs, sorted by
// file, line, then analyzer. Exit code 0: an inventory is not a failure —
// the pinned-count test is what turns growth into one.
func listSuppressions(out io.Writer, pkgs []*lint.Package, wd string, asJSON bool) (int, error) {
	for _, s := range lint.CollectSuppressions(pkgs) {
		file := relTo(wd, s.Pos.Filename)
		if asJSON {
			data, err := json.Marshal(jsonSuppression{
				File: file, Line: s.Pos.Line, Analyzer: s.Analyzer, Reason: s.Reason,
			})
			if err != nil {
				return 2, err
			}
			fmt.Fprintf(out, "%s\n", data)
			continue
		}
		fmt.Fprintf(out, "%s:%d: %s: %s\n", file, s.Pos.Line, s.Analyzer, s.Reason)
	}
	return 0, nil
}

// relTo makes path relative to wd when it is inside it.
func relTo(wd, path string) string {
	if wd != "" {
		if rel, err := filepath.Rel(wd, path); err == nil && !strings.HasPrefix(rel, "..") {
			return rel
		}
	}
	return path
}

// jsonSuppression is the -suppressions -json wire shape.
type jsonSuppression struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Reason   string `json:"reason"`
}

// jsonFinding is the -json wire shape: one object per line, stable field
// order, relative file path.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// printJSON emits one finding as a single JSON line.
func printJSON(out io.Writer, file string, f lint.Finding) error {
	data, err := json.Marshal(jsonFinding{
		File: file, Line: f.Pos.Line, Analyzer: f.Analyzer, Message: f.Message,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", data)
	return err
}
