package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// listedPackage is the subset of `go list -json` output the loader consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Export     string
	Standard   bool
	Module     *struct{ Path string }
}

// goList runs `go list` in dir with the given arguments and decodes the
// JSON package stream.
func goList(dir string, args ...string) ([]listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(args, " "), err, errBuf.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(&out)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter resolves imports from compiler export data produced by
// `go list -export`. It lazily shells out for paths it has not seen, so one
// instance serves both the production loader (pre-seeded with the target
// patterns' dependency closure) and the tests' fixture loader (stdlib
// imports on demand).
type exportImporter struct {
	dir     string
	exports map[string]string // import path -> export data file
	gc      types.Importer
}

func newExportImporter(dir string, fset *token.FileSet) *exportImporter {
	e := &exportImporter{dir: dir, exports: make(map[string]string)}
	e.gc = importer.ForCompiler(fset, "gc", e.lookup)
	return e
}

// seed loads export data for the patterns' dependency closures.
func (e *exportImporter) seed(patterns ...string) error {
	pkgs, err := goList(e.dir, append([]string{"-deps", "-export",
		"-json=ImportPath,Export"}, patterns...)...)
	if err != nil {
		return err
	}
	for _, p := range pkgs {
		if p.Export != "" {
			e.exports[p.ImportPath] = p.Export
		}
	}
	return nil
}

func (e *exportImporter) lookup(path string) (io.ReadCloser, error) {
	f, ok := e.exports[path]
	if !ok {
		if err := e.seed(path); err != nil {
			return nil, err
		}
		if f, ok = e.exports[path]; !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
	}
	return os.Open(f)
}

// Import implements types.Importer.
func (e *exportImporter) Import(path string) (*types.Package, error) {
	return e.gc.Import(path)
}

// newInfo returns a types.Info with every map analyzers consult populated.
func newInfo() *types.Info {
	return &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
		Defs:  make(map[*ast.Ident]types.Object),
	}
}

// Load resolves the package patterns (e.g. "./...") relative to dir, parses
// and type-checks every non-test file of the module's matching packages, and
// returns them ready for analysis. Test files and testdata are excluded —
// fixtures under testdata carry deliberate violations.
func Load(dir string, patterns ...string) ([]*Package, error) {
	targets, err := goList(dir, append([]string{
		"-json=ImportPath,Dir,Name,GoFiles,Standard,Module"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := newExportImporter(dir, fset)
	if err := imp.seed(patterns...); err != nil {
		return nil, err
	}

	var out []*Package
	for _, t := range targets {
		if t.Standard || t.Module == nil || len(t.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil,
				parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("lint: %w", err)
			}
			files = append(files, f)
		}
		info := newInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", t.ImportPath, err)
		}
		out = append(out, &Package{
			Path: t.ImportPath, Fset: fset, Files: files, Types: tpkg, Info: info,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}
