package lint

import (
	"go/ast"
	"go/token"
	"strconv"
)

// registryMethods are the obs.Registry constructors that mint metric
// families. Each takes the family name as its first argument.
var registryMethods = map[string]bool{
	"Counter":     true,
	"Gauge":       true,
	"Histogram":   true,
	"CounterFunc": true,
	"GaugeFunc":   true,
}

// MetricName enforces the metric-catalog conventions of the obs
// package: every Registry constructor call (Counter, Gauge, Histogram,
// CounterFunc, GaugeFunc) must pass an untyped string literal as the
// family name — so `grep emigre_` finds the whole catalog — and no two
// call sites anywhere in the analyzed tree may spell the same name.
// Per-label variants of one family belong behind a single helper with
// one literal (a loop or repeated calls through one site are fine);
// scattering the same literal across sites is how help strings and
// bucket layouts silently drift apart until the registry panics on the
// first run that links both sites.
//
// Like FaultSite, the duplicate check spans packages: the returned
// analyzer carries its seen-name set across per-package runs, so Suite
// must construct a fresh instance per Analyze call.
func MetricName() *Analyzer {
	a := &Analyzer{
		Name: "metricname",
	}
	seen := map[string]token.Position{}
	a.Run = func(pass *Pass) {
		if pass.Pkg.Types == nil {
			return
		}
		// The obs package itself wraps the constructors (register,
		// validation, test corpora) and is exempt — the invariant is
		// about the catalog its callers build.
		if pass.Pkg.Types.Name() == "obs" {
			return
		}
		info := pass.Pkg.Info
		for _, file := range pass.Pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !registryMethods[sel.Sel.Name] || len(call.Args) < 1 {
					return true
				}
				recv := typeOf(info, sel.X)
				named := namedOf(recv)
				if named == nil || named.Obj().Name() != "Registry" || typePkgName(recv) != "obs" {
					return true
				}
				lit, ok := call.Args[0].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					pass.Reportf(call.Args[0].Pos(), "obs %s name must be a string literal so the metric catalog stays greppable", sel.Sel.Name)
					return true
				}
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					return true
				}
				if name == "" {
					pass.Reportf(lit.Pos(), "obs %s name must not be empty", sel.Sel.Name)
					return true
				}
				if prev, dup := seen[name]; dup {
					pass.Reportf(lit.Pos(), "metric family %q already minted at %s:%d — route per-label variants through one helper", name, prev.Filename, prev.Line)
					return true
				}
				seen[name] = pass.Fset.Position(lit.Pos())
				return true
			})
		}
	}
	return a
}
