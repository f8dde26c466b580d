package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrCheckStrict flags statements, in every package, that silently drop
// the error result of calls whose failure loses data: io.Closer Close (an
// os.File close is when buffered writes actually hit the disk), Flush,
// cache Store, encoder Encode, report Render/Export, and Write* sink
// methods. An explicit `_ = f.Close()` is an acknowledged drop and is not
// flagged; writers that cannot fail (strings.Builder, bytes.Buffer) are
// exempt.
//
// On http.ResponseWriter paths the blank-assign escape hatch is closed:
// `_, _ = w.Write(body)` (or a blank-assigned encoder/flusher call whose
// argument chain mentions a ResponseWriter) discards the one signal that a
// client never received its response. A serving process must count those —
// a spike in failed response writes is an operational symptom, not noise —
// so the drop is flagged even when explicit.
var ErrCheckStrict = &Analyzer{
	Name: "errcheckstrict",
	Run:  runErrCheckStrict,
}

// strictNames are the exact callee names checked; names starting with
// "Write" are checked too.
var strictNames = map[string]bool{
	"Close": true, "Flush": true, "Store": true, "Encode": true,
	"Render": true, "Export": true,
}

func strictName(name string) bool {
	return strictNames[name] || strings.HasPrefix(name, "Write")
}

// neverFailingRecv reports receivers whose Write/WriteString error results
// are documented to always be nil.
func neverFailingRecv(sig *types.Signature) bool {
	if sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	full := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	return full == "strings.Builder" || full == "bytes.Buffer"
}

// isResponseWriter reports whether t is the net/http.ResponseWriter
// interface.
func isResponseWriter(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "net/http" && named.Obj().Name() == "ResponseWriter"
}

// mentionsResponseWriter reports whether any expression inside the call
// (receiver chain included) is typed http.ResponseWriter — w.Write(b),
// json.NewEncoder(w).Encode(v), s.reg.WritePrometheus(w).
func mentionsResponseWriter(info *types.Info, call *ast.CallExpr) bool {
	found := false
	ast.Inspect(call, func(n ast.Node) bool {
		if found {
			return false
		}
		if e, ok := n.(ast.Expr); ok {
			if t := info.TypeOf(e); t != nil && isResponseWriter(t) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// blankAssignedCall returns the call whose results stmt drops entirely into
// blank identifiers (`_ = c()`, `_, _ = c()`), or nil.
func blankAssignedCall(as *ast.AssignStmt) *ast.CallExpr {
	if len(as.Rhs) != 1 {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	for _, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name != "_" {
			return nil
		}
	}
	return call
}

func runErrCheckStrict(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var call *ast.CallExpr
			var deferred, blankRW bool
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, _ = n.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call, deferred = n.Call, true
			case *ast.GoStmt:
				call = n.Call
			case *ast.AssignStmt:
				// Blank assignment is the sanctioned acknowledgment —
				// except on ResponseWriter paths, where the failed write
				// must be counted.
				if c := blankAssignedCall(n); c != nil && mentionsResponseWriter(p.Info, c) {
					call, blankRW = c, true
				}
			}
			if call == nil {
				return true
			}
			fn := calleeFunc(p.Info, call)
			if fn == nil || !strictName(fn.Name()) {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Results().Len() == 0 {
				return true
			}
			last := sig.Results().At(sig.Results().Len() - 1).Type()
			if !types.Identical(last, errorType) || neverFailingRecv(sig) {
				return true
			}
			what := recvString(fn) + "." + fn.Name()
			switch {
			case deferred:
				p.Reportf(call.Pos(), "deferred %s drops its error; close in a named helper or wrap: defer func() { _ = x.%s() }() with a reason", what, fn.Name())
			case blankRW:
				p.Reportf(call.Pos(), "%s's error result is blank-assigned on a ResponseWriter path; a failed response write is an operational signal — count it", what)
			default:
				p.Reportf(call.Pos(), "%s's error result is silently dropped; handle it or assign to _ explicitly", what)
			}
			return true
		})
	}
}
