// Package lint is the repository's custom static analysis. The value of
// this reproduction is that every figure and table is regenerated
// bit-for-bit from a deterministic device model; the analyzers here turn
// the invariants that make that true — no wall-clock or global randomness
// in model code, no map-iteration order leaking into emitted output, no
// non-finite float reaching a JSON boundary unclamped, no raw numbers
// crossing a typed-unit boundary, no silently dropped errors on
// stores/sinks/closers — into machine-checked rules instead of reviewer
// vigilance.
//
// The driver is dependency-free: packages are parsed with go/parser and
// type-checked with go/types against export data produced by `go list
// -export` (see load.go). The package's own tests run every analyzer over
// the whole module (`go test ./internal/lint`) and fail with each finding
// as "file:line: analyzer: message"; a finding can be suppressed with a
// comment on the same line or the line above:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory, and the analyzer must be a registered one; a
// directive that breaks either rule is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the canonical "file:line: analyzer: message"
// form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Package is one parsed and type-checked package under analysis.
type Package struct {
	// Path is the package's import path; analyzer scopes match against it.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Analyzer is one invariant checker; it sees one package at a time.
type Analyzer struct {
	Name string
	// Scope restricts the analyzer to packages for which it returns true.
	// A nil Scope means every package.
	Scope func(pkgPath string) bool
	// Run checks one in-scope package, reporting through the Pass.
	Run func(*Pass)
}

// Pass couples an analyzer with one package for a single run.
type Pass struct {
	*Package
	analyzer *Analyzer
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns every analyzer in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NoDeterminism, FiniteFlow, ErrCheckStrict, UnitSafety,
	}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// modelPackages are the packages whose outputs feed the paper's figures and
// tables and therefore must be bit-for-bit deterministic. nodeterminism and
// finiteflow apply here (and to subpackages).
var modelPackages = []string{
	"repro/internal/gpu",
	"repro/internal/trace",
	"repro/internal/report",
	"repro/internal/telemetry",
	"repro/internal/stats",
	"repro/internal/roofline",
	"repro/internal/core",
	"repro/internal/units",
}

func modelScope(path string) bool {
	for _, p := range modelPackages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// Run applies the analyzers to the packages, filters suppressed findings,
// and returns the rest sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var all []Finding
	for _, pkg := range pkgs {
		sup, malformed := suppressions(pkg)
		all = append(all, malformed...)
		for _, a := range analyzers {
			if a.Scope != nil && !a.Scope(pkg.Path) {
				continue
			}
			var fs []Finding
			a.Run(&Pass{Package: pkg, analyzer: a, findings: &fs})
			for _, f := range fs {
				if !suppressed(sup, f) {
					all = append(all, f)
				}
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return all
}

// ignorePrefix opens a suppression directive.
const ignorePrefix = "lint:ignore"

// directive is one parsed //lint:ignore comment.
type directive struct {
	analyzer string
	reason   string
}

// suppressions collects the //lint:ignore directives of a package, indexed
// by file and line, and reports malformed ones as findings. A directive
// naming no registered analyzer is malformed too: it could never suppress
// anything, yet would count toward the suppression budget.
func suppressions(pkg *Package) (map[string]map[int][]directive, []Finding) {
	sup := make(map[string]map[int][]directive)
	var malformed []Finding
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(text, ignorePrefix))
				if len(fields) < 2 {
					malformed = append(malformed, Finding{
						Pos: pos, Analyzer: "lint",
						Message: `malformed suppression: want "//lint:ignore <analyzer> <reason>"`,
					})
					continue
				}
				if ByName(fields[0]) == nil {
					malformed = append(malformed, Finding{
						Pos: pos, Analyzer: "lint",
						Message: fmt.Sprintf("suppression names unknown analyzer %q", fields[0]),
					})
					continue
				}
				if sup[pos.Filename] == nil {
					sup[pos.Filename] = make(map[int][]directive)
				}
				sup[pos.Filename][pos.Line] = append(sup[pos.Filename][pos.Line],
					directive{analyzer: fields[0], reason: strings.Join(fields[1:], " ")})
			}
		}
	}
	return sup, malformed
}

// Suppression is one well-formed //lint:ignore directive, for the
// suppression inventory.
type Suppression struct {
	Pos      token.Position
	Analyzer string
	Reason   string
}

// String renders the suppression as "file:line: analyzer: reason".
func (s Suppression) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", s.Pos.Filename, s.Pos.Line, s.Analyzer, s.Reason)
}

// CollectSuppressions inventories every well-formed //lint:ignore directive
// of the packages, sorted by file, line, and analyzer. Malformed directives
// (no reason, or an unknown analyzer) are excluded — Run already reports
// those as findings. The list is the input to the suppression budget: CI
// pins its length so the escape hatch cannot widen silently.
func CollectSuppressions(pkgs []*Package) []Suppression {
	var out []Suppression
	for _, pkg := range pkgs {
		sup, _ := suppressions(pkg)
		for file, lines := range sup {
			for line, ds := range lines {
				for _, d := range ds {
					out = append(out, Suppression{
						Pos:      token.Position{Filename: file, Line: line},
						Analyzer: d.analyzer,
						Reason:   d.reason,
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// suppressed reports whether a directive on the finding's line or the line
// above names the finding's analyzer.
func suppressed(sup map[string]map[int][]directive, f Finding) bool {
	lines := sup[f.Pos.Filename]
	for _, d := range append(lines[f.Pos.Line], lines[f.Pos.Line-1]...) {
		if d.analyzer == f.Analyzer {
			return true
		}
	}
	return false
}

// calleeFunc resolves the function or method a call invokes, or nil for
// calls through function values, built-ins, and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isFloat reports whether t is a floating-point type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

var errorType = types.Universe.Lookup("error").Type()

// recvString renders a method's receiver type for messages ("*os.File").
func recvString(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		if fn.Pkg() != nil {
			return fn.Pkg().Name()
		}
		return ""
	}
	return types.TypeString(sig.Recv().Type(), func(p *types.Package) string { return p.Name() })
}
