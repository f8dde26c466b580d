package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// FiniteFlow flags float divisions in the model packages whose results are
// placed directly into a serialization boundary — a struct literal with
// json tags, or a map[string]any / map[string]float64 literal (trace
// args) — without passing through a clamp. encoding/json rejects NaN and
// ±Inf with an error, so an unguarded ratio (zero DRAM transactions, zero
// elapsed time) would abort an export at runtime. Recognized guards:
// wrapping the expression in telemetry.Finite (any function named Finite)
// or a clamp* helper, or flooring the denominator with math.Max / the max
// built-in / a positive constant.
var FiniteFlow = &Analyzer{
	Name:  "finiteflow",
	Scope: modelScope,
	Run:   runFiniteFlow,
}

func runFiniteFlow(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			t := p.Info.TypeOf(lit)
			if t == nil || !jsonBoundary(t) {
				return true
			}
			for _, el := range lit.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if div := unguardedDivision(p.Info, v); div != nil {
					p.Reportf(div.Pos(), "float division reaches the %s serialization boundary without a Finite/clamp guard; NaN or ±Inf would make encoding/json fail",
						boundaryName(t))
				}
			}
			return true
		})
	}
}

// jsonBoundary reports whether a composite literal of type t feeds
// serialization: a struct with json-tagged fields, or a string-keyed map of
// any/float values (the shape of telemetry args).
func jsonBoundary(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if strings.Contains(u.Tag(i), `json:"`) {
				return true
			}
		}
	case *types.Map:
		key, ok := u.Key().Underlying().(*types.Basic)
		if !ok || key.Kind() != types.String {
			return false
		}
		if iface, ok := u.Elem().Underlying().(*types.Interface); ok {
			return iface.Empty()
		}
		return isFloat(u.Elem())
	}
	return false
}

func boundaryName(t types.Type) string {
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// unguardedDivision returns the first floating-point division in e that is
// not protected by a clamp, or nil.
func unguardedDivision(info *types.Info, e ast.Expr) ast.Expr {
	var bad ast.Expr
	ast.Inspect(e, func(n ast.Node) bool {
		if bad != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if guardCall(info, n) {
				return false // everything inside a clamp is sanctioned
			}
		case *ast.BinaryExpr:
			if n.Op == token.QUO && isFloat(info.TypeOf(n)) && !safeDenominator(info, n.Y) {
				bad = n
				return false
			}
		}
		return true
	})
	return bad
}

// guardCall reports whether call invokes a clamp helper: any function named
// Finite (telemetry.Finite and friends) or whose name starts with "clamp".
func guardCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	return fn.Name() == "Finite" || strings.HasPrefix(fn.Name(), "clamp") ||
		strings.HasPrefix(fn.Name(), "Clamp")
}

// safeDenominator reports whether the divisor cannot be zero or NaN: a
// positive constant, or a floor through math.Max / the max built-in.
func safeDenominator(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		if f, _ := constant.Float64Val(constant.ToFloat(tv.Value)); f > 0 {
			return true
		}
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "max" {
			return true
		}
	}
	fn := calleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "math" && fn.Name() == "Max"
}
