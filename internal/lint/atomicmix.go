package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicMix enforces a single memory model per field: once a field is
// accessed atomically anywhere in the module — either by having one of
// the sync/atomic wrapper types (atomic.Int64, atomic.Bool,
// atomic.Pointer[T], ...) or by being passed to a sync/atomic function
// (atomic.AddInt64(&s.n, 1)) — every other access must be atomic too.
// A plain read racing an atomic write is exactly the kind of bug the
// race detector only catches when the interleaving happens in a test;
// this analyzer catches it at vet time, module-wide, because the
// atomic site and the plain site are routinely in different packages.
//
// Concretely, for a wrapper-typed field the only allowed uses are
// method calls (s.n.Load(), s.n.Add(1)), method values (s.n.Load as a
// metrics callback) and address-of (&s.n, handing the atomic around by
// pointer); copying or overwriting the wrapper value is reported. For
// a plain-typed field with at least one sync/atomic call site, the
// only allowed uses are address-of arguments to sync/atomic functions.
// Both rules are waived inside constructors (functions named New* /
// new*, and init): before the value escapes its builder there is no
// concurrency to order.
//
// Tracked fields are struct fields and package-level variables; locals
// cannot be shared across functions without being captured, and a
// captured local shows up here the moment it is hoisted to a field.
func AtomicMix() *Analyzer {
	a := &Analyzer{
		Name: "atomicmix",
	}
	a.RunModule = func(pass *ModulePass) {
		// Pass 1: find the atomic fields — wrapper-typed ones by
		// declaration, plain ones by their sync/atomic call sites.
		wrapper := map[*types.Var]bool{}
		legacy := map[*types.Var]token.Position{}
		for _, pkg := range pass.Pkgs {
			if pkg.Info == nil {
				continue
			}
			for _, obj := range pkg.Info.Defs {
				v, ok := obj.(*types.Var)
				if !ok || !trackableVar(v) {
					continue
				}
				if isAtomicWrapperType(v.Type()) {
					wrapper[v] = true
				}
			}
			for _, file := range pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || !isSyncAtomicCall(pkg.Info, call) {
						return true
					}
					for _, arg := range call.Args {
						un, ok := arg.(*ast.UnaryExpr)
						if !ok || un.Op != token.AND {
							continue
						}
						if v := varOfExpr(pkg.Info, un.X); v != nil && trackableVar(v) {
							if _, seen := legacy[v]; !seen {
								legacy[v] = pass.Fset.Position(un.Pos())
							}
						}
					}
					return true
				})
			}
		}
		if len(wrapper) == 0 && len(legacy) == 0 {
			return
		}
		// Pass 2: audit every use of a tracked field.
		for _, pkg := range pass.Pkgs {
			if pkg.Info == nil {
				continue
			}
			for _, file := range pkg.Files {
				parents := buildParents(file)
				ast.Inspect(file, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					v, ok := pkg.Info.Uses[id].(*types.Var)
					if !ok {
						return true
					}
					if wrapper[v] {
						if !wrapperUseOK(pkg.Info, parents, id) {
							pass.Reportf(id.Pos(), "field %s has atomic type %s; use its methods (Load/Store/Add/...) instead of plain access", id.Name, v.Type())
						}
						return true
					}
					if at, ok := legacy[v]; ok {
						if !legacyUseOK(pkg.Info, parents, id) {
							pass.Reportf(id.Pos(), "plain access to %s, which is accessed with sync/atomic at %s:%d; mixing atomic and plain operations races", id.Name, at.Filename, at.Line)
						}
					}
					return true
				})
			}
		}
	}
	return a
}

// trackableVar reports whether v is a field or a package-level
// variable — the shareable storage the mixed-access rule applies to.
func trackableVar(v *types.Var) bool {
	if v.IsField() {
		return true
	}
	pkg := v.Pkg()
	return pkg != nil && v.Parent() == pkg.Scope()
}

// isAtomicWrapperType reports whether t is one of sync/atomic's value
// types (atomic.Int64, atomic.Bool, atomic.Pointer[T], atomic.Value,
// ...). Pointers to them are excluded: copying a *atomic.Int64 is safe.
func isAtomicWrapperType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// isSyncAtomicCall reports whether call invokes a function of the
// sync/atomic package (atomic.AddInt64, atomic.LoadUint32, ...).
func isSyncAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == "sync/atomic"
}

// varOfExpr resolves expr to the variable it denotes: the field of a
// selector chain's last hop (s.n, c.stats.n) or a bare identifier.
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

// useExprOf returns the largest expression denoting the field use
// rooted at id: the enclosing selector when id is its field (s.n for
// id n), id itself otherwise.
func useExprOf(parents parentMap, id *ast.Ident) ast.Expr {
	if sel, ok := parents[id].(*ast.SelectorExpr); ok && sel.Sel == id {
		return sel
	}
	return id
}

// inConstructor reports whether the use sits inside a constructor-like
// function: New*/new* (builders) or init, where the value has not
// escaped to other goroutines yet.
func inConstructor(parents parentMap, n ast.Node) bool {
	name := enclosingFuncName(parents, n)
	if name == "init" {
		return true
	}
	return len(name) >= 3 && (name[:3] == "New" || name[:3] == "new")
}

// wrapperUseOK classifies one use of a wrapper-typed atomic field.
func wrapperUseOK(info *types.Info, parents parentMap, id *ast.Ident) bool {
	expr := useExprOf(parents, id)
	switch p := parents[expr].(type) {
	case *ast.SelectorExpr:
		// s.n.Load() or the method value s.n.Load — any further
		// selection on an atomic wrapper is a method.
		if p.X == expr {
			return true
		}
	case *ast.UnaryExpr:
		// &s.n: the atomic travels by pointer, accesses stay atomic.
		if p.Op == token.AND && p.X == expr {
			return true
		}
	case *ast.KeyValueExpr:
		// Cache{n: ...} can only zero-init a wrapper; builders do this.
		if p.Key == expr {
			return inConstructor(parents, id)
		}
	}
	return inConstructor(parents, id)
}

// legacyUseOK classifies one use of a plain-typed field that has
// sync/atomic call sites elsewhere.
func legacyUseOK(info *types.Info, parents parentMap, id *ast.Ident) bool {
	expr := useExprOf(parents, id)
	if un, ok := parents[expr].(*ast.UnaryExpr); ok && un.Op == token.AND && un.X == expr {
		if call, ok := parents[un].(*ast.CallExpr); ok && isSyncAtomicCall(info, call) {
			return true
		}
	}
	return inConstructor(parents, id)
}
