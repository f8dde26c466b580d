package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NoDeterminism flags nondeterminism sources in the deterministic model
// packages: wall-clock reads (time.Now/Since/Until), uses of math/rand's
// global source (package-level calls; seeded *rand.Rand values are fine),
// and range loops over maps that emit output from inside the loop body —
// Go's map iteration order would leak into figures, tables, and traces.
var NoDeterminism = &Analyzer{
	Name:  "nodeterminism",
	Scope: modelScope,
	Run:   runNoDeterminism,
}

// allowedRand are math/rand constructors: they build seeded generators and
// are deterministic by themselves.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runNoDeterminism(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(p.Info, n)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
					return true // methods (e.g. on a seeded *rand.Rand) are fine
				}
				switch path, name := fn.Pkg().Path(), fn.Name(); {
				case path == "time" && (name == "Now" || name == "Since" || name == "Until"):
					p.Reportf(n.Pos(), "call to time.%s reads the wall clock in deterministic model code", name)
				case (path == "math/rand" || path == "math/rand/v2") && !allowedRand[name]:
					p.Reportf(n.Pos(), "call to %s.%s uses the global random source; use a seeded *rand.Rand", fn.Pkg().Name(), name)
				}
			case *ast.RangeStmt:
				t := p.Info.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, ok := t.Underlying().(*types.Map); !ok {
					return true
				}
				if pos, emit := findEmit(p.Info, n.Body); emit != "" {
					p.Reportf(n.Pos(), "map iteration order is random but %s (line %d) emits output inside this range; collect the keys, sort, then emit",
						emit, p.Fset.Position(pos).Line)
				}
			}
			return true
		})
	}
}

// emitMethods are method names that write to an output sink; calling one
// inside a map range makes the output order nondeterministic.
var emitMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"WriteText": true, "Encode": true, "Emit": true, "AddRow": true,
	"Render": true,
}

// findEmit returns the position and description of the first output-emitting
// call inside body, or "" when there is none.
func findEmit(info *types.Info, body *ast.BlockStmt) (token.Pos, string) {
	var pos token.Pos
	var desc string
	ast.Inspect(body, func(n ast.Node) bool {
		if desc != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return true
		}
		if sig.Recv() == nil {
			if fn.Pkg() == nil {
				return true
			}
			name := fn.Name()
			switch fn.Pkg().Path() {
			case "fmt":
				if strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Print") {
					pos, desc = call.Pos(), "fmt."+name
				}
			case "io":
				if name == "WriteString" || name == "Copy" {
					pos, desc = call.Pos(), "io."+name
				}
			}
			return true
		}
		if emitMethods[fn.Name()] {
			pos, desc = call.Pos(), recvString(fn)+"."+fn.Name()
		}
		return true
	})
	return pos, desc
}
