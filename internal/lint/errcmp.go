package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ErrCmp flags `==`/`!=` between error values: sentinel errors in this
// codebase are routinely wrapped (fmt.Errorf("%w", ...), CanceledError,
// errors.Join), so identity comparison silently stops matching the
// moment a call site adds context. errors.Is is the only comparison
// that survives wrapping; nil checks are exempt.
func ErrCmp() *Analyzer {
	a := &Analyzer{
		Name: "errcmp",
	}
	errType := types.Universe.Lookup("error").Type()
	a.Run = func(pass *Pass) {
		info := pass.Pkg.Info
		for _, file := range pass.Pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				cmp, ok := n.(*ast.BinaryExpr)
				if !ok || (cmp.Op != token.EQL && cmp.Op != token.NEQ) {
					return true
				}
				x := info.Types[cmp.X]
				y := info.Types[cmp.Y]
				if x.IsNil() || y.IsNil() {
					return true
				}
				if (x.Type != nil && types.Identical(x.Type, errType)) ||
					(y.Type != nil && types.Identical(y.Type, errType)) {
					pass.Reportf(cmp.OpPos, "error compared with %s; use errors.Is so wrapped sentinels still match", cmp.Op)
				}
				return true
			})
		}
	}
	return a
}
