package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// keptExports are the exported identifiers under internal/ that no program
// calls and that stay anyway, each matched with path.Match against the keys
// exportKey builds.
var keptExports = map[string]string{
	"repro/internal/stats.SilhouetteScore":    "BenchmarkAblationFAMD scores the FAMD-vs-raw-PCA ablation of DESIGN.md §6b with it",
	"repro/internal/core.AmdahlExample":       "BenchmarkAblationAmdahl prices the Amdahl ablation of DESIGN.md §6b with it",
	"repro/internal/testutil.*":               "the package exists to serve tests",
	"repro/internal/units.*.Float":            "unitsafety's messages prescribe .Float() on every unit type",
	"repro/internal/lint.Run":                 "TestRepoIsClean runs every analyzer over the module with it",
	"repro/internal/lint.Load":                "TestRepoIsClean, TestSuppressionBudget and the guard tests here type-check the module with it",
	"repro/internal/lint.CollectSuppressions": "TestSuppressionBudget pins the //lint:ignore inventory with it",
}

// TestNoTestOnlyExports fails on any exported function, method, type or
// package-level const/var under repro/internal/ that no non-test file of the
// module or of hostbench uses. Go's internal/ rule keeps every other module
// out, so such a symbol is code nothing can call: delete it, or move it into
// the _test.go that uses it. A method is exempt when its receiver implements
// an interface that declares it (error, fmt.Stringer, workloads.Workload, ...),
// because the call is then dynamic. Skipped in -short mode because it
// type-checks the full repository and hostbench.
func TestNoTestOnlyExports(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo export scan is not short")
	}
	pkgs := repoPackages(t)
	used := make(map[string]bool)
	for _, p := range append(hostbenchPackages(t), pkgs...) {
		for _, obj := range p.Info.Uses {
			if key, ok := exportKey(obj); ok {
				used[key] = true
			}
		}
	}
	decls := exportedUnderInternal(pkgs)
	ifaces := interfacesOf(pkgs)
	var unused []string
	for key, obj := range decls {
		if !used[key] && !satisfiesInterface(obj, ifaces) && keptBy(key) == "" {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		t.Errorf("%s is exported under internal/ but no non-test code uses it", key)
	}
	matched := make(map[string]bool)
	for key := range decls {
		matched[keptBy(key)] = true
	}
	for pattern := range keptExports {
		if !matched[pattern] {
			t.Errorf("keptExports entry %q matches nothing; drop it", pattern)
		}
	}
}

// keptUnsetFields are the exported fields under internal/ that no program
// writes and that stay anyway, each matched with path.Match against the keys
// fieldKeys builds.
var keptUnsetFields = map[string]string{
	"repro/internal/testutil.*": "encoding/json fills these trace-reader fields when tests decode a trace",
}

// TestNoUnsetFields fails on any exported field of an exported struct type
// under repro/internal/ that no non-test file of the module or of hostbench
// writes: every program leaves it at its zero value, so it is a setting with
// one value in use, which belongs in the code that reads it. A write is a
// composite-literal element (keyed or positional), an assignment, ++ or --,
// &x.F, or a call of a pointer method on x.F. Fields are keyed by
// "importpath.Type.Field" because hostbench sees repro's packages through
// export data, as distinct objects. Type aliases are skipped: their fields
// belong to the aliased type. Skipped in -short mode because it type-checks
// the full repository and hostbench.
func TestNoUnsetFields(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo field scan is not short")
	}
	pkgs := repoPackages(t)
	keys := make(fieldKeys)
	written := make(map[string]bool)
	for _, p := range append(hostbenchPackages(t), pkgs...) {
		for _, f := range p.Files {
			for _, v := range fieldWrites(p.Info, f) {
				if key, ok := keys.of(v); ok {
					written[key] = true
				}
			}
		}
	}
	declared := make(map[string]bool)
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, "repro/internal/") {
			continue
		}
		for _, key := range keys.declared(p.Types) {
			declared[key] = true
		}
	}
	var unset []string
	for key := range declared {
		if !written[key] && keptFieldBy(key) == "" {
			unset = append(unset, key)
		}
	}
	sort.Strings(unset)
	for _, key := range unset {
		t.Errorf("%s is an exported field that no non-test code writes", key)
	}
	matched := make(map[string]bool)
	for key := range declared {
		matched[keptFieldBy(key)] = true
	}
	for pattern := range keptUnsetFields {
		if !matched[pattern] {
			t.Errorf("keptUnsetFields entry %q matches nothing; drop it", pattern)
		}
	}
}

// fieldKeys maps each field of an exported, non-alias struct type declared
// at package scope to its "importpath.Type.Field" key, filled one package
// at a time as fields of that package are looked up.
type fieldKeys map[*types.Var]string

// declared returns the keys of tp's exported fields of exported struct
// types, recording every field of those types.
func (k fieldKeys) declared(tp *types.Package) []string {
	var out []string
	scope := tp.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			key := tp.Path() + "." + name + "." + f.Name()
			k[f] = key
			if f.Exported() {
				out = append(out, key)
			}
		}
	}
	return out
}

// of returns the key of field v, or false for a field of a struct type
// that is unexported, an alias, or not declared at package scope.
func (k fieldKeys) of(v *types.Var) (string, bool) {
	v = v.Origin()
	if v.Pkg() == nil {
		return "", false
	}
	if _, ok := k[v]; !ok {
		k.declared(v.Pkg())
	}
	key, ok := k[v]
	return key, ok
}

// fieldWrites returns every struct field f writes, once per write.
func fieldWrites(info *types.Info, f *ast.File) []*types.Var {
	var out []*types.Var
	// target records the fields an assigned or addressed expression
	// writes: x.F writes F, and so do x.F.G (which also writes G) and
	// x.F[i].
	var target func(e ast.Expr)
	target = func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
					out = append(out, v)
				}
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			t := info.Types[n].Type
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						if v, ok := info.Uses[id].(*types.Var); ok {
							out = append(out, v)
						}
					}
				} else if i < st.NumFields() {
					out = append(out, st.Field(i))
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				target(lhs)
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				target(n.X)
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				break
			}
			fn, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok {
				break
			}
			recv := fn.Type().(*types.Signature).Recv()
			if recv == nil {
				break
			}
			if _, ptrRecv := recv.Type().(*types.Pointer); !ptrRecv {
				break
			}
			if _, ptrOperand := info.Types[sel.X].Type.(*types.Pointer); !ptrOperand {
				target(sel.X)
			}
		}
		return true
	})
	return out
}

// keptFieldBy returns the keptUnsetFields pattern that matches key, or "".
func keptFieldBy(key string) string {
	for pattern := range keptUnsetFields {
		if ok, _ := path.Match(pattern, key); ok {
			return pattern
		}
	}
	return ""
}

// TestNoTestOnlyUnexported fails on any unexported package-level function or
// method in the module that no non-test code of its package uses: only a
// _test.go file calls it, so it belongs in one. The interface exemption of
// TestNoTestOnlyExports applies, and so do init and main, which the runtime
// calls. Skipped in -short mode because it type-checks the full repository.
func TestNoTestOnlyUnexported(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo scan is not short")
	}
	pkgs := repoPackages(t)
	used := make(map[types.Object]bool)
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
	}
	ifaces := interfacesOf(pkgs)
	var unused []string
	for _, p := range pkgs {
		for id, obj := range p.Info.Defs {
			fn, ok := obj.(*types.Func)
			if !ok || id.IsExported() || used[fn] || id.Name == "init" || id.Name == "main" {
				continue
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				continue
			}
			if !satisfiesInterface(fn, ifaces) {
				unused = append(unused, p.Fset.Position(id.Pos()).String()+": "+fn.FullName())
			}
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is unexported and no non-test code uses it", u)
	}
}

// exportedUnderInternal maps the key of every exported function, method, type
// and package-level const/var declared under repro/internal/ to its object.
// Methods declared inside interface types belong to their interface and are
// not listed on their own.
func exportedUnderInternal(pkgs []*Package) map[string]types.Object {
	out := make(map[string]types.Object)
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, "repro/internal/") {
			continue
		}
		for id, obj := range p.Info.Defs {
			if obj == nil || !id.IsExported() {
				continue
			}
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					continue
				}
			} else if obj.Parent() != p.Types.Scope() {
				continue
			}
			if key, ok := exportKey(obj); ok {
				out[key] = obj
			}
		}
	}
	return out
}

// exportKey names obj as "importpath.Name" or, for a method,
// "importpath.Recv.Name". The key is a string rather than the object because
// hostbench is type-checked apart and sees repro's packages through export
// data, as distinct objects.
func exportKey(obj types.Object) (string, bool) {
	if obj.Pkg() == nil {
		return "", false
	}
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return "", false
			}
			return obj.Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name(), true
		}
	case *types.Var:
		if o.IsField() {
			return "", false
		}
		obj = o.Origin()
	case *types.TypeName, *types.Const:
	default:
		return "", false
	}
	return obj.Pkg().Path() + "." + obj.Name(), true
}

// interfacesOf returns every non-empty interface a value of the packages'
// types may be passed as: error, and the named interfaces the packages and
// their direct imports declare.
func interfacesOf(pkgs []*Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := make(map[*types.Package]bool)
	for _, p := range pkgs {
		for _, tp := range append([]*types.Package{p.Types}, p.Types.Imports()...) {
			if seen[tp] {
				continue
			}
			seen[tp] = true
			scope := tp.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok {
					continue
				}
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
	}
	return out
}

// satisfiesInterface reports whether obj is a method whose receiver type
// implements one of ifaces that declares a method of the same name.
func satisfiesInterface(obj types.Object, ifaces []*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	for _, it := range ifaces {
		if !types.Implements(t, it) && !types.Implements(types.NewPointer(t), it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() {
				return true
			}
		}
	}
	return false
}

var hostOnce struct {
	sync.Once
	pkgs []*Package
	err  error
}

// hostbenchPackages loads and type-checks the hostbench module once per test
// binary; it sees repro's packages through export data.
func hostbenchPackages(tb testing.TB) []*Package {
	tb.Helper()
	hostOnce.Do(func() {
		hostOnce.pkgs, hostOnce.err = Load(filepath.Join("..", "..", "hostbench"), ".")
	})
	if hostOnce.err != nil {
		tb.Fatalf("load hostbench: %v", hostOnce.err)
	}
	return hostOnce.pkgs
}

// keptBy returns the keptExports pattern that matches key, or "".
func keptBy(key string) string {
	for pattern := range keptExports {
		if ok, _ := path.Match(pattern, key); ok {
			return pattern
		}
	}
	return ""
}
