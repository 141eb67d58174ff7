package lint

import (
	"go/ast"
	"go/types"
)

// rawEnginePackages names the packages that must not call PPR engines
// directly: the explainer and the recommender, whose byte-identical
// cache-on/cache-off guarantee holds only while every vector is served
// through the cache-identity helpers.
var rawEnginePackages = map[string]bool{"emigre": true, "rec": true}

// rawEngineMethods are the engine entry points that compute a vector
// or a full push state, including the warm-start entry point,
// ForwardPush.UpdateForEdit, which no routing helper calls: neither
// package may warm-start at all. ToTargets, the batch entry point
// of the blocked reverse kernel, counts like its single-column form: a
// raw batch bypasses the cache for K columns at once.
var rawEngineMethods = map[string]bool{
	"FromSource":        true,
	"FromSourceContext": true,
	"ToTarget":          true,
	"ToTargetContext":   true,
	"ToTargets":         true,
	"Run":               true,
	"RunContext":        true,
	"RunUntil":          true,
	"UpdateForEdit":     true,
}

// rawEngineAllowedFuncs are the designated routing helpers — the only
// declared functions allowed to invoke an engine raw (they do so as the
// cache-miss compute path). Closures inside them inherit the approval.
//
// gateColumns is the one deliberately uncached route: the rival gate's
// reverse columns — learn's {u, first winner} pair fetch, one blocked
// drain — live and die with their session. Routed through the
// cache they saved no CPU (ISSUE 23: 83.9 vs 83.9 ms/op on whynot-remove) and
// took its peak RSS from 85–88 to 98.5 MiB, past the benchmark's 10 %
// bound; they only ever reject a set the cold CHECK would reject too, so
// cache identity has nothing to protect.
//
// TopDecided is the cold CHECK's push, uncached because it stops once its
// rank verdict is certified: a stopped vector is not a full-ε vector, so
// storing it under the forward identity would serve wrong scores, and it
// returns the verdict a drained push gives, so there is nothing for
// cache identity to protect either.
var rawEngineAllowedFuncs = map[string]bool{
	"reverseColumns": true, // internal/emigre: cached PPR(·,t) columns, misses drained in one batch
	"reverseColumn":  true, // internal/rec: its one-key twin
	"gateColumns":    true, // internal/emigre: session-scoped rival-gate columns, uncached on purpose
	"ScoresContext":  true, // internal/rec: cached PPR(u,·) rows
	"TopDecided":     true, // internal/rec: the cold CHECK's early-stopped push, uncached on purpose
}

// RawEngine enforces the cache-routing invariant of the pprcache PR:
// inside the explainer and recommender, PPR engine Forward/Reverse
// calls (FromSource*/ToTarget*) on engine types from the ppr package
// are forbidden outside the designated routing helpers. A raw call
// computes a correct vector but bypasses cache identity, breaking the
// guarantee that explanations are byte-identical with the cache on and
// off — and silently forfeiting the warm-hit speedup.
func RawEngine() *Analyzer {
	a := &Analyzer{
		Name: "rawengine",
		Doc:  "explainer/recommender code must route PPR vectors through the cache helpers",
	}
	a.Run = func(pass *Pass) {
		if pass.Pkg.Types == nil || !rawEnginePackages[pass.Pkg.Types.Name()] {
			return
		}
		info := pass.Pkg.Info
		for _, file := range pass.Pkg.Files {
			parents := buildParents(file)
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !rawEngineMethods[sel.Sel.Name] {
					return true
				}
				if !isPPREngineCall(info, sel) {
					return true
				}
				if rawEngineAllowedFuncs[enclosingFuncName(parents, call)] {
					return true
				}
				pass.Reportf(call.Pos(), "raw engine call %s bypasses the PPR-vector cache; route it through reverseColumns / ScoresContext (or, for a rival-gate column, gateColumns)", sel.Sel.Name)
				return true
			})
		}
	}
	return a
}

// isPPREngineCall reports whether sel selects a method or function of
// a package named "ppr": a method on an engine value (including
// interface dispatch through ppr.Engine / ppr.ReverseEngine), or a
// package-level function selected off the ppr import.
func isPPREngineCall(info *types.Info, sel *ast.SelectorExpr) bool {
	if s, ok := info.Selections[sel]; ok {
		return typePkgName(s.Recv()) == "ppr"
	}
	// Package-qualified call: ppr.SomeFunc(...).
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := info.Uses[id].(*types.PkgName); ok {
			return pn.Imported().Name() == "ppr"
		}
	}
	return false
}
