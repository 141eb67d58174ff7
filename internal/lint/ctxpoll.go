package lint

import (
	"go/ast"
)

// ctxPollPackages names the packages whose unbounded loops must poll
// for cancellation: the PPR engines and the EMiGRe search strategies,
// where one forgotten poll turns a canceled request into a hung one.
// Matching is by package name so the analyzer applies to any package
// of that name (including test fixtures).
var ctxPollPackages = map[string]bool{"ppr": true, "emigre": true}

// CtxPoll enforces the cancellation invariant of the context plumbing
// PR: every unbounded `for` loop (no loop condition) in a PPR or
// search-strategy package must contain a cancellation check — a call
// to ctx.Err/ctx.Done, a call that receives a context.Context (the
// callee polls), or a call to a `canceled` method — either in its own
// body or in the body of an enclosing loop of the same function (the
// outer loop then polls between runs of the inner one).
func CtxPoll() *Analyzer {
	a := &Analyzer{
		Name: "ctxpoll",
		Doc:  "unbounded for loops in PPR/search packages must poll for cancellation",
	}
	a.Run = func(pass *Pass) {
		if pass.Pkg.Types == nil || !ctxPollPackages[pass.Pkg.Types.Name()] {
			return
		}
		for _, file := range pass.Pkg.Files {
			parents := buildParents(file)
			ast.Inspect(file, func(n ast.Node) bool {
				loop, ok := n.(*ast.ForStmt)
				if !ok || loop.Cond != nil {
					return true
				}
				if pollsCtx(pass, loop.Body) {
					return true
				}
				// Climb to enclosing loops within the same function: a
				// poll per outer iteration bounds the hang to one inner
				// run.
				for p := parents[loop]; p != nil; p = parents[p] {
					switch outer := p.(type) {
					case *ast.FuncDecl, *ast.FuncLit:
						p = nil
					case *ast.ForStmt:
						if pollsCtx(pass, outer.Body) {
							return true
						}
					case *ast.RangeStmt:
						if pollsCtx(pass, outer.Body) {
							return true
						}
					}
					if p == nil {
						break
					}
				}
				pass.Reportf(loop.For, "unbounded for loop without a cancellation check (call ctx.Err, a ctx-taking helper, or break it via an enclosing polled loop)")
				return true
			})
		}
	}
	return a
}

// pollsCtx reports whether the subtree contains a cancellation check.
func pollsCtx(pass *Pass, body ast.Node) bool {
	info := pass.Pkg.Info
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Any call handed a context.Context delegates polling to the
		// callee (ctxErr(ctx), helper(ctx, ...), r.TopNContext(ctx, ...)).
		for _, arg := range call.Args {
			if isContextType(typeOf(info, arg)) {
				found = true
				return false
			}
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			name := fun.Sel.Name
			if (name == "Err" || name == "Done") && isContextType(typeOf(info, fun.X)) {
				found = true
				return false
			}
			if name == "canceled" {
				found = true
				return false
			}
		case *ast.Ident:
			if fun.Name == "canceled" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
