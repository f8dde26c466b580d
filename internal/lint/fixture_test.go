package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// fixtureLoader type-checks GOPATH-style fixture trees under a src root:
// imports resolve first against sibling fixture packages, then against the
// standard library via export data. The analyzer test harness uses it to
// compile testdata fixtures that deliberately violate invariants.
type fixtureLoader struct {
	srcRoot string
	fset    *token.FileSet
	std     *exportImporter
	cache   map[string]*Package
}

func newFixtureLoader(srcRoot string) *fixtureLoader {
	fset := token.NewFileSet()
	return &fixtureLoader{
		srcRoot: srcRoot,
		fset:    fset,
		std:     newExportImporter(srcRoot, fset),
		cache:   make(map[string]*Package),
	}
}

// Import implements types.Importer for fixture-internal imports.
func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(l.srcRoot, path); isDir(dir) {
		p, err := l.load(path, path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// load parses and checks the fixture package in srcRoot/dirRel, giving it
// asPath as its import path (so analyzer scopes can be exercised).
func (l *fixtureLoader) load(dirRel, asPath string) (*Package, error) {
	if p, ok := l.cache[dirRel]; ok {
		return p, nil
	}
	dir := filepath.Join(l.srcRoot, dirRel)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in fixture %s", dir)
	}
	info := newInfo()
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(asPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking fixture %s: %w", dirRel, err)
	}
	p := &Package{Path: asPath, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.cache[dirRel] = p
	return p, nil
}

func isDir(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}
