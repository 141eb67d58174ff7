package lint

import (
	"go/ast"
	"go/types"
)

// AtomicMix keeps one memory model per word. Every atomic in the tree
// is typed (atomic.Int64, atomic.Bool, atomic.Pointer[T], ...), so a
// field is accessed atomically exactly when its type says so, and go
// vet's copylocks check reports copying or overwriting one. A sync/atomic
// function (atomic.AddInt64(&s.n, 1)) works on a plain word that plain
// code can still read and write — the one way left to mix atomic and
// plain access — so any use of one is reported.
func AtomicMix() *Analyzer {
	a := &Analyzer{Name: "atomicmix"}
	a.Run = func(pass *Pass) {
		info := pass.Pkg.Info
		if info == nil {
			return
		}
		for _, file := range pass.Pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := info.Uses[sel.Sel].(*types.Func)
				if ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil {
					pass.Reportf(sel.Pos(), "sync/atomic function %s on a plain word; use a typed atomic (atomic.Int64, atomic.Bool, ...) so no access can be plain", fn.Name())
				}
				return true
			})
		}
	}
	return a
}
