package lint

import (
	"go/ast"
	"go/types"
)

// parentMap records the parent of every AST node of a file, letting
// analyzers climb from a flagged node to its enclosing loops and
// function declarations without a full CFG.
type parentMap map[ast.Node]ast.Node

func buildParents(file *ast.File) parentMap {
	parents := parentMap{}
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// typeOf is Info.TypeOf, tolerating missing entries (nil on a tree
// with type errors).
func typeOf(info *types.Info, e ast.Expr) types.Type {
	if info == nil {
		return nil
	}
	return info.TypeOf(e)
}

// namedOf unwraps pointers and returns the named type of t, nil when
// t is not (a pointer to) a named type.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// trackableVar reports whether v is a field or a package-level
// variable — shareable storage, where a mutex can order goroutines.
func trackableVar(v *types.Var) bool {
	return v.IsField() || (v.Pkg() != nil && v.Parent() == v.Pkg().Scope())
}

// varOfExpr resolves expr to the variable it denotes: the field of a
// selector chain's last hop (s.mu, c.stats.mu) or a bare identifier.
func varOfExpr(info *types.Info, expr ast.Expr) *types.Var {
	switch x := expr.(type) {
	case *ast.Ident:
		v, _ := info.Uses[x].(*types.Var)
		return v
	case *ast.SelectorExpr:
		v, _ := info.Uses[x.Sel].(*types.Var)
		return v
	case *ast.ParenExpr:
		return varOfExpr(info, x.X)
	case *ast.IndexExpr:
		return varOfExpr(info, x.X)
	}
	return nil
}
