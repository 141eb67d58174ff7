package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// FaultSite enforces the failpoint-registry conventions of the fault
// package: every fault.Register call must pass an untyped string
// literal (so the site catalog is greppable and the registry's
// duplicate panic cannot hide behind runtime-built names), and no two
// Register calls anywhere in the analyzed tree may use the same name
// (the registry panics on collision at init time, but only on the code
// path that actually links both sites — the analyzer catches the
// collision statically, in unlinked combinations too).
//
// The duplicate check spans packages: the returned analyzer carries the
// seen-name set across its per-package runs, so a fresh instance (as
// Suite constructs) must be used per Analyze call.
func FaultSite() *Analyzer {
	a := &Analyzer{
		Name: "faultsite",
	}
	seen := map[string]token.Position{}
	a.Run = func(pass *Pass) {
		if pass.Pkg.Types == nil {
			return
		}
		info := pass.Pkg.Info
		for _, file := range pass.Pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if !isFaultRegister(info, call) || len(call.Args) != 1 {
					return true
				}
				lit, ok := call.Args[0].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					pass.Reportf(call.Args[0].Pos(), "fault.Register argument must be a string literal so the site catalog stays greppable")
					return true
				}
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					return true
				}
				if name == "" {
					pass.Reportf(lit.Pos(), "fault.Register name must not be empty")
					return true
				}
				if prev, dup := seen[name]; dup {
					pass.Reportf(lit.Pos(), "fault site %q already registered at %s:%d", name, prev.Filename, prev.Line)
					return true
				}
				seen[name] = pass.Fset.Position(lit.Pos())
				return true
			})
		}
	}
	return a
}

// isFaultRegister reports whether call is fault.Register(...) — a
// Register selected off an import of a package named "fault".
func isFaultRegister(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Register" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Name() == "fault"
}
