package lint

import (
	"go/ast"
	"go/types"
)

// GoroLeak enforces bounded goroutine lifetimes: every `go` statement
// must carry static evidence that the spawned goroutine terminates —
// otherwise a forgotten worker outlives its request, pins its captures,
// and accumulates under serving traffic until the process dies. The
// accepted proofs, in the order real sites use them:
//
//   - the goroutine signals a sync.WaitGroup (a Done call, almost
//     always deferred) — some joiner blocks on it, so a leak is a hang
//     the tests catch;
//   - the goroutine joins on a sync.WaitGroup itself (Wait) — its
//     lifetime is the workers' lifetimes, which are checked at their
//     own go statements;
//   - the goroutine polls a context.Context: a select with a
//     ctx.Done() case, a direct ctx.Err()/ctx.Done() call, or any call
//     that receives a context (the callee inherits the poll obligation,
//     enforced by ctxpoll in the engine packages);
//   - a //lint:allow goroleak <reason> directive for the genuinely
//     unbounded cases (a process-lifetime listener, a fire-and-forget
//     whose bound lives in a runtime invariant the analyzer cannot
//     see). The reason is mandatory and reviewed, and the dynamic
//     internal/testleak check backs the claim under -race.
//
// Evidence is searched in the goroutine's body (for `go func(){...}()`)
// including nested literals — a worker that delegates its loop to a
// closure still counts — and in the call's arguments (for `go name(x)`:
// handing the callee a context is the proof).
func GoroLeak() *Analyzer {
	a := &Analyzer{
		Name: "goroleak",
	}
	a.Run = func(pass *Pass) {
		info := pass.Pkg.Info
		for _, file := range pass.Pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
					if boundedLifetime(info, lit.Body) {
						return true
					}
				} else {
					// go name(args...): passing a context to the callee is
					// the only local evidence available.
					for _, arg := range g.Call.Args {
						if isContextType(typeOf(info, arg)) {
							return true
						}
					}
				}
				pass.Reportf(g.Pos(), "goroutine without bounded-lifetime evidence: signal a WaitGroup, poll a context, or justify with //lint:allow goroleak <reason>")
				return true
			})
		}
	}
	return a
}

// boundedLifetime reports whether the goroutine body carries one of the
// accepted termination proofs.
func boundedLifetime(info *types.Info, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// A call handed a context delegates the poll to the callee.
		for _, arg := range call.Args {
			if isContextType(typeOf(info, arg)) {
				found = true
				return false
			}
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Done", "Err":
			// ctx.Done() / ctx.Err(): a cancellation poll (the Done case
			// covers `select { case <-ctx.Done(): }` too — the channel
			// expression is this call).
			if isContextType(typeOf(info, sel.X)) {
				found = true
				return false
			}
			if sel.Sel.Name == "Done" && isWaitGroupType(typeOf(info, sel.X)) {
				found = true
				return false
			}
		case "Wait":
			if isWaitGroupType(typeOf(info, sel.X)) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isWaitGroupType reports whether t is (a pointer to) sync.WaitGroup.
func isWaitGroupType(t types.Type) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}
