package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// UnitSafety enforces the internal/units conventions in the packages that
// produce and serialize metrics. Go's defined types already reject mixed
// ADD/SUB and implicit assignment across units; this analyzer closes the
// holes the type system leaves open:
//
//   - a direct conversion from one unit type to another (units.Seconds(c)
//     where c is units.Cycles) silently changes dimension — it must go
//     through a units constructor or method (Cycles.AtRate, Txns.Bytes,
//     units.Share, ...);
//   - multiplying or dividing two values of the same unit type produces a
//     result that is dimensionally NOT that unit (Seconds² or a plain
//     ratio) yet keeps the type — the operands must be converted out
//     explicitly first (.Float(), float64(...)) unless the whole
//     expression is itself converted to a non-unit type. Fraction is
//     dimensionless and exempt;
//   - a bare numeric literal other than 0 or 1 written into a unit-typed
//     field or variable bypasses the constructors that establish the
//     value's provenance;
//   - a Fraction reaching a JSON/trace serialization boundary without a
//     Finite/clamp guard or a units constructor in between can smuggle
//     NaN or an out-of-range share into emitted output.
var UnitSafety = &Analyzer{
	Name:  "unitsafety",
	Scope: unitSafetyScope,
	Run:   runUnitSafety,
}

// unitSafetyScope covers the metric-producing packages — the model scope
// plus profiler and memsim — but not internal/units itself, whose
// constructors are the sanctioned place for raw conversions.
func unitSafetyScope(path string) bool {
	if unitsPackage(path) {
		return false
	}
	return modelScope(path) ||
		strings.HasSuffix(path, "/profiler") || strings.HasSuffix(path, "/memsim")
}

// unitsPackage reports whether path is a units package (the real
// repro/internal/units or a fixture stand-in).
func unitsPackage(path string) bool {
	return path == "units" || strings.HasSuffix(path, "/units")
}

// unitName returns the name of the unit type t ("Seconds", "Txns",
// "Fraction", ...) if t is a defined numeric type from a units package,
// else "".
func unitName(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !unitsPackage(obj.Pkg().Path()) {
		return ""
	}
	if _, ok := named.Underlying().(*types.Basic); !ok {
		return ""
	}
	return obj.Name()
}

// conversionTarget returns the type a call expression converts to, or nil
// when the call is a regular function/method call.
func conversionTarget(info *types.Info, call *ast.CallExpr) types.Type {
	if len(call.Args) != 1 {
		return nil
	}
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	tn, ok := info.Uses[id].(*types.TypeName)
	if !ok {
		return nil
	}
	return tn.Type()
}

// unitsCall reports whether call invokes a function or method defined in a
// units package: its constructors and accessors are the sanctioned
// producers and escapes for unit values.
func unitsCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && unitsPackage(fn.Pkg().Path())
}

func runUnitSafety(p *Pass) {
	for _, file := range p.Files {
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCrossUnitConversion(p, n)
			case *ast.BinaryExpr:
				checkSameUnitMulQuo(p, n, stack)
			case *ast.AssignStmt:
				checkUnitAssign(p, n)
			case *ast.CompositeLit:
				checkUnitCompositeLit(p, n)
				checkBoundaryLit(p, n)
			}
			return true
		})
	}
}

// checkCrossUnitConversion flags U1(x) where x already has a different unit
// type U2: the dimension change is implicit. Converting a plain numeric
// into a unit, or a unit out to a plain numeric, stays legal.
func checkCrossUnitConversion(p *Pass, call *ast.CallExpr) {
	tgt := conversionTarget(p.Info, call)
	if tgt == nil {
		return
	}
	tgtUnit := unitName(tgt)
	if tgtUnit == "" {
		return
	}
	arg := ast.Unparen(call.Args[0])
	if tv, ok := p.Info.Types[arg]; !ok || tv.Value != nil {
		return // constants adopt the target type; that is the point of them
	}
	argUnit := unitName(p.Info.TypeOf(arg))
	if argUnit == "" || argUnit == tgtUnit {
		return
	}
	p.Reportf(call.Pos(),
		"conversion units.%s(units.%s) changes dimension implicitly; use a units constructor or method (e.g. Cycles.AtRate, Txns.Bytes, units.Share)",
		tgtUnit, argUnit)
}

// checkSameUnitMulQuo flags x*y and x/y where both operands share a
// non-Fraction unit type: the product or ratio is dimensionally not that
// unit. The expression is sanctioned when an enclosing node converts it to
// a non-unit type, wraps it in a Finite/clamp guard, or hands it to a
// units-package helper.
func checkSameUnitMulQuo(p *Pass, e *ast.BinaryExpr, stack []ast.Node) {
	if e.Op != token.MUL && e.Op != token.QUO {
		return
	}
	xu, yu := operandUnit(p.Info, e.X), operandUnit(p.Info, e.Y)
	if xu == "" || yu == "" || xu == "Fraction" {
		return
	}
	if sanctioned(p.Info, stack) {
		return
	}
	p.Reportf(e.Pos(),
		"%q mixes unit-typed operands: the result of units.%s %s units.%s is dimensionally not a %s — convert explicitly (.Float()) or use a units helper",
		e.Op, xu, e.Op, yu, xu)
}

// operandUnit returns the operand's unit name, treating constants as
// unit-free: an untyped constant adopts the other operand's type, which is
// exactly how scale factors are meant to be written.
func operandUnit(info *types.Info, e ast.Expr) string {
	e = ast.Unparen(e)
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		return ""
	}
	return unitName(info.TypeOf(e))
}

// sanctioned reports whether any enclosing expression (excluding the node
// itself, which sits at the top of the stack) explicitly leaves unit space:
// a conversion to a non-unit type, a Finite/clamp guard, or a call into the
// units package.
func sanctioned(info *types.Info, stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		call, ok := stack[i].(*ast.CallExpr)
		if !ok {
			continue
		}
		if tgt := conversionTarget(info, call); tgt != nil && unitName(tgt) == "" {
			return true
		}
		if guardCall(info, call) || unitsCall(info, call) {
			return true
		}
	}
	return false
}

// checkUnitAssign flags bare numeric literals assigned into unit-typed
// locations, plus *= and /= between same-unit values (the assignment form
// of the MUL/QUO rule).
func checkUnitAssign(p *Pass, as *ast.AssignStmt) {
	if as.Tok == token.MUL_ASSIGN || as.Tok == token.QUO_ASSIGN {
		if len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			lu := unitName(p.Info.TypeOf(as.Lhs[0]))
			ru := operandUnit(p.Info, as.Rhs[0])
			if lu != "" && lu != "Fraction" && ru == lu {
				p.Reportf(as.Pos(),
					"%q mixes unit-typed operands: the result is dimensionally not a %s — convert explicitly (.Float()) or use a units helper",
					as.Tok, lu)
			}
		}
		return
	}
	if as.Tok != token.ASSIGN {
		return // := infers plain numeric types from literals
	}
	for i, rhs := range as.Rhs {
		if i >= len(as.Lhs) {
			break
		}
		if lit := bareLiteral(rhs); lit != nil {
			if u := unitName(p.Info.TypeOf(as.Lhs[i])); u != "" {
				p.Reportf(lit.Pos(),
					"bare numeric literal %s assigned into units.%s; construct the value through internal/units or name it as a typed constant",
					lit.Value, u)
			}
		}
	}
}

// checkUnitCompositeLit flags bare numeric literals used as unit-typed
// composite-literal elements (struct fields, map values, slice elements).
func checkUnitCompositeLit(p *Pass, lit *ast.CompositeLit) {
	for _, el := range lit.Elts {
		v := el
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			v = kv.Value
		}
		bl := bareLiteral(v)
		if bl == nil {
			continue
		}
		if u := unitName(p.Info.TypeOf(v)); u != "" {
			p.Reportf(bl.Pos(),
				"bare numeric literal %s used as units.%s; construct the value through internal/units or name it as a typed constant",
				bl.Value, u)
		}
	}
}

// bareLiteral returns the numeric literal e unwraps to, or nil. The
// identities 0 and 1 are exempt: zero values and whole shares carry no
// hidden scale.
func bareLiteral(e ast.Expr) *ast.BasicLit {
	e = ast.Unparen(e)
	if un, ok := e.(*ast.UnaryExpr); ok && (un.Op == token.SUB || un.Op == token.ADD) {
		e = ast.Unparen(un.X)
	}
	bl, ok := e.(*ast.BasicLit)
	if !ok || (bl.Kind != token.INT && bl.Kind != token.FLOAT) {
		return nil
	}
	if v := constant.MakeFromLiteral(bl.Value, bl.Kind, 0); v != nil {
		if f, _ := constant.Float64Val(constant.ToFloat(v)); f == 0 || f == 1 {
			return nil
		}
	}
	return bl
}

// checkBoundaryLit flags a Fraction that reaches a serialization boundary
// (the same boundary shapes finiteflow recognizes) without passing through
// a Finite/clamp guard or a units constructor.
func checkBoundaryLit(p *Pass, lit *ast.CompositeLit) {
	t := p.Info.TypeOf(lit)
	if t == nil || !jsonBoundary(t) {
		return
	}
	for _, el := range lit.Elts {
		v := el
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			v = kv.Value
		}
		if bad := unguardedFraction(p.Info, v); bad != nil {
			p.Reportf(bad.Pos(),
				"units.Fraction value reaches the %s serialization boundary without a Finite/clamp guard",
				boundaryName(t))
		}
	}
}

// unguardedFraction returns the first non-constant Fraction-typed
// expression in e that no guard or units call sanctions, or nil. Guards are
// checked before types so that f.Clamp01() and f.Clamped() count as guarded
// even though the receiver (and, for Clamped, the result) is a Fraction.
func unguardedFraction(info *types.Info, e ast.Expr) ast.Expr {
	var bad ast.Expr
	ast.Inspect(e, func(n ast.Node) bool {
		if bad != nil {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if guardCall(info, call) || unitsCall(info, call) {
				return false // everything inside is sanctioned
			}
		}
		if ex, ok := n.(ast.Expr); ok {
			if tv, found := info.Types[ex]; found && tv.Value == nil &&
				unitName(info.TypeOf(ex)) == "Fraction" {
				bad = ex
				return false
			}
		}
		return true
	})
	return bad
}
