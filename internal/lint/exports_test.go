package lint

import (
	"go/types"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptExports are the exported identifiers under internal/ that no program
// calls and that stay anyway, each matched with path.Match against the keys
// exportKey builds.
var keptExports = map[string]string{
	"repro/internal/stats.SilhouetteScore": "BenchmarkAblationFAMD scores the FAMD-vs-raw-PCA ablation of DESIGN.md §6b with it",
	"repro/internal/core.AmdahlExample":    "BenchmarkAblationAmdahl prices the Amdahl ablation of DESIGN.md §6b with it",
	"repro/internal/testutil.*":            "the package exists to serve tests",
	"repro/internal/units.*.Float":         "unitsafety's messages prescribe .Float() on every unit type",
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
	host, err := Load(filepath.Join("..", "..", "hostbench"), ".")
	if err != nil {
		t.Fatalf("load hostbench: %v", err)
	}
	used := make(map[string]bool)
	for _, p := range append(host, pkgs...) {
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

// keptBy returns the keptExports pattern that matches key, or "".
func keptBy(key string) string {
	for pattern := range keptExports {
		if ok, _ := path.Match(pattern, key); ok {
			return pattern
		}
	}
	return ""
}
