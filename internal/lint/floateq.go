package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// floatEqHelperPkg is the one package allowed to spell out
// floating-point equality inline: internal/fmath, the audited
// epsilon/tie-break helpers everything else must route through.
const floatEqHelperPkg = "fmath"

// FloatEq flags `==`/`!=` between floating-point expressions. PPR
// scores are sums of thousands of float64 terms whose low bits depend
// on summation order, so inline equality is either a
// tolerance bug (compare |a-b| <= tol instead) or an undocumented
// exact-tie contract, which belongs in internal/fmath's Eq/Before: the
// deliberate exact comparisons the ranking tie-break contract and
// zero-value option sentinels rely on. One-off intentional sites
// (e.g. verifying that two adjacency lists carry bit-identical copies)
// use //lint:allow floateq with a reason.
func FloatEq() *Analyzer {
	a := &Analyzer{
		Name: "floateq",
	}
	a.Run = func(pass *Pass) {
		if pass.Pkg.Types != nil && pass.Pkg.Types.Name() == floatEqHelperPkg {
			return
		}
		info := pass.Pkg.Info
		for _, file := range pass.Pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				cmp, ok := n.(*ast.BinaryExpr)
				if !ok || (cmp.Op != token.EQL && cmp.Op != token.NEQ) {
					return true
				}
				if isFloat(typeOf(info, cmp.X)) || isFloat(typeOf(info, cmp.Y)) {
					pass.Reportf(cmp.OpPos, "floating-point %s; use fmath.Eq/Before or a tolerance (or //lint:allow floateq <reason>)", cmp.Op)
				}
				return true
			})
		}
	}
	return a
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}
