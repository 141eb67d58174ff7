package lint

import (
	"go/ast"
	"go/types"
)

// stampFields are the struct fields that carry cache identity: writing
// one of them counts as "touching the version stamp". A struct that
// declares either field is a stamped type, and its exported mutating
// methods fall under the analyzer.
var stampFields = map[string]bool{"version": true, "digest": true}

// bumpMethods are method names that touch the stamp by convention even
// when their body is not visible to the classification (they always
// are in practice; the name check just keeps fixtures and future
// helpers honest).
var bumpMethods = map[string]bool{"bumpVersion": true, "bumpDigest": true}

// VersionBump enforces the cache-correctness invariant of the
// versioning PR: every exported method that mutates a stamped struct
// (one with a `version` or `digest` field, such as hin.Graph)
// must touch the stamp on every path from the first mutation to a
// return. A mutation that escapes without a bump leaves old cache
// entries describing the new state, which silently serves stale
// counterfactuals.
//
// Mutation and bumping are tracked through same-type method calls
// (AddBidirectional mutates and bumps via AddEdge), and the per-path
// analysis is deliberately lenient where Go's control flow gets
// complicated: states merging after a branch consider the stamp
// touched only if every surviving path touched it, and paths ending in
// return/panic/break are taken out of the merge.
func VersionBump() *Analyzer {
	a := &Analyzer{
		Name: "versionbump",
		Doc:  "exported mutating methods on stamped structs must bump the version stamp on every return path",
	}
	a.Run = func(pass *Pass) {
		if pass.Pkg.Types == nil {
			return
		}
		stamped := stampedTypes(pass.Pkg.Types)
		if len(stamped) == 0 {
			return
		}
		cls := classify(pass, stamped)
		for _, m := range cls.methods {
			if !m.decl.Name.IsExported() || !cls.effects[m.key()].mutates {
				continue
			}
			w := &bumpWalker{pass: pass, cls: cls, m: m}
			end := w.stmts(m.decl.Body.List, bumpState{})
			if !end.terminated && end.mutated && !end.bumped {
				pass.Reportf(m.decl.Body.Rbrace, "%s.%s mutates the struct but falls off the end without touching the version stamp", m.typeName, m.decl.Name.Name)
			}
		}
	}
	return a
}

// stampedTypes returns the names of package-level struct types that
// declare a stamp field.
func stampedTypes(pkg *types.Package) map[string]bool {
	out := map[string]bool{}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if stampFields[st.Field(i).Name()] {
				out[name] = true
				break
			}
		}
	}
	return out
}

// method is one method declaration on a stamped type.
type method struct {
	typeName string
	decl     *ast.FuncDecl
	recvObj  types.Object // the receiver variable, nil when unnamed
}

func (m *method) key() string { return m.typeName + "." + m.decl.Name.Name }

// effect summarizes what calling a method does to its receiver.
type effect struct {
	mutates bool // writes a non-stamp receiver field (directly or transitively)
	bumps   bool // writes a stamp field (directly or transitively)
}

type classification struct {
	pass    *Pass
	methods []*method
	effects map[string]effect
}

// classify gathers every method of the stamped types and computes each
// one's receiver effects, propagating through same-type method calls
// to a fixed point.
func classify(pass *Pass, stamped map[string]bool) *classification {
	cls := &classification{pass: pass, effects: map[string]effect{}}
	calls := map[string][]string{} // method key -> same-type callee keys
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || len(fd.Recv.List) == 0 {
				continue
			}
			tname := recvTypeName(fd)
			if !stamped[tname] {
				continue
			}
			m := &method{typeName: tname, decl: fd}
			if names := fd.Recv.List[0].Names; len(names) > 0 {
				m.recvObj = pass.Pkg.Info.Defs[names[0]]
			}
			cls.methods = append(cls.methods, m)
			eff, callees := directEffects(pass, m)
			if bumpMethods[fd.Name.Name] {
				eff.bumps = true
			}
			cls.effects[m.key()] = eff
			calls[m.key()] = callees
		}
	}
	for changed := true; changed; {
		changed = false
		for key, callees := range calls {
			eff := cls.effects[key]
			for _, callee := range callees {
				ce := cls.effects[callee]
				if (ce.mutates && !eff.mutates) || (ce.bumps && !eff.bumps) {
					eff.mutates = eff.mutates || ce.mutates
					eff.bumps = eff.bumps || ce.bumps
					changed = true
				}
			}
			cls.effects[key] = eff
		}
	}
	return cls
}

// recvTypeName returns the name of the receiver's base type.
func recvTypeName(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// directEffects scans a method body for direct receiver writes and
// same-type receiver-method calls (returned as callee keys), skipping
// function literals (a closure's effects happen when it runs, which
// this lenient analysis does not model).
func directEffects(pass *Pass, m *method) (effect, []string) {
	var eff effect
	var callees []string
	scan := func(n ast.Node) {
		e, c := scanEffects(pass, m, n)
		eff.mutates = eff.mutates || e.mutates
		eff.bumps = eff.bumps || e.bumps
		callees = append(callees, c...)
	}
	scan(m.decl.Body)
	return eff, callees
}

// scanEffects inspects a subtree (without crossing into function
// literals) for receiver writes, delete() on receiver maps, and
// receiver-method calls.
func scanEffects(pass *Pass, m *method, root ast.Node) (effect, []string) {
	var eff effect
	var callees []string
	if root == nil {
		return eff, nil
	}
	info := pass.Pkg.Info
	isRecv := func(e ast.Expr) bool {
		id := rootIdent(e)
		return id != nil && m.recvObj != nil && info.Uses[id] == m.recvObj
	}
	write := func(lhs ast.Expr) {
		if !isRecv(lhs) {
			return
		}
		if stampFields[firstField(lhs)] {
			eff.bumps = true
		} else {
			eff.mutates = true
		}
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				write(lhs)
			}
		case *ast.IncDecStmt:
			write(x.X)
		case *ast.UnaryExpr:
			// &g.field escaping may be mutated elsewhere; lenient: ignore.
		case *ast.CallExpr:
			switch fun := x.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "delete" && len(x.Args) > 0 && isRecv(x.Args[0]) {
					eff.mutates = true
				}
			case *ast.SelectorExpr:
				if id, ok := fun.X.(*ast.Ident); ok && m.recvObj != nil && info.Uses[id] == m.recvObj {
					callees = append(callees, m.typeName+"."+fun.Sel.Name)
					if bumpMethods[fun.Sel.Name] {
						eff.bumps = true
					}
				}
			}
		}
		return true
	})
	return eff, callees
}

// bumpState is the per-path analysis state.
type bumpState struct {
	mutated    bool // a non-stamp receiver write happened on this path
	bumped     bool // the stamp was touched on this path
	terminated bool // the path ended (return, panic, break/continue/goto)
}

// bumpWalker walks a method body in source order, reporting returns
// that escape a mutation without a bump.
type bumpWalker struct {
	pass *Pass
	cls  *classification
	m    *method
}

// apply folds the receiver effects of an expression-bearing node into
// the state (method-call effects resolved through the classification).
func (w *bumpWalker) apply(st bumpState, n ast.Node) bumpState {
	if n == nil {
		return st
	}
	eff, callees := scanEffects(w.pass, w.m, n)
	st.mutated = st.mutated || eff.mutates
	st.bumped = st.bumped || eff.bumps
	for _, callee := range callees {
		ce := w.cls.effects[callee]
		st.mutated = st.mutated || ce.mutates
		st.bumped = st.bumped || ce.bumps
	}
	return st
}

// merge combines the states of alternative paths: only surviving
// (non-terminated) paths matter; the stamp counts as touched only when
// every surviving path touched it.
func merge(states ...bumpState) bumpState {
	var out bumpState
	first := true
	for _, st := range states {
		if st.terminated {
			continue
		}
		if first {
			out, first = st, false
			continue
		}
		out.mutated = out.mutated || st.mutated
		out.bumped = out.bumped && st.bumped
	}
	if first {
		out.terminated = true
	}
	return out
}

func (w *bumpWalker) stmts(list []ast.Stmt, st bumpState) bumpState {
	for _, s := range list {
		if st.terminated {
			return st
		}
		st = w.stmt(s, st)
	}
	return st
}

func (w *bumpWalker) stmt(s ast.Stmt, st bumpState) bumpState {
	switch x := s.(type) {
	case *ast.ReturnStmt:
		st = w.apply(st, x)
		if st.mutated && !st.bumped {
			w.pass.Reportf(x.Pos(), "%s.%s returns after mutating the struct without touching the version stamp", w.m.typeName, w.m.decl.Name.Name)
		}
		st.terminated = true
		return st
	case *ast.BlockStmt:
		return w.stmts(x.List, st)
	case *ast.IfStmt:
		st = w.apply(st, x.Init)
		st = w.apply(st, x.Cond)
		thenSt := w.stmts(x.Body.List, st)
		elseSt := st
		if x.Else != nil {
			elseSt = w.stmt(x.Else, st)
		}
		return merge(thenSt, elseSt)
	case *ast.ForStmt:
		st = w.apply(st, x.Init)
		st = w.apply(st, x.Cond)
		st = w.apply(st, x.Post)
		body := w.stmts(x.Body.List, st)
		return merge(st, body)
	case *ast.RangeStmt:
		st = w.apply(st, x.X)
		body := w.stmts(x.Body.List, st)
		return merge(st, body)
	case *ast.SwitchStmt:
		st = w.apply(st, x.Init)
		st = w.apply(st, x.Tag)
		return w.cases(caseBodies(x.Body), hasDefault(x.Body), st)
	case *ast.TypeSwitchStmt:
		st = w.apply(st, x.Init)
		st = w.apply(st, x.Assign)
		return w.cases(caseBodies(x.Body), hasDefault(x.Body), st)
	case *ast.SelectStmt:
		var bodies [][]ast.Stmt
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				bodies = append(bodies, cc.Body)
			}
		}
		// A select blocks until some clause runs: no implicit skip path.
		return w.cases(bodies, true, st)
	case *ast.DeferStmt:
		// A deferred bump covers every return from here on.
		return w.apply(st, x.Call)
	case *ast.LabeledStmt:
		return w.stmt(x.Stmt, st)
	case *ast.BranchStmt:
		st.terminated = true
		return st
	case *ast.ExprStmt:
		if call, ok := x.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				st = w.apply(st, x)
				st.terminated = true
				return st
			}
		}
		return w.apply(st, x)
	default:
		return w.apply(st, s)
	}
}

func (w *bumpWalker) cases(bodies [][]ast.Stmt, exhaustive bool, st bumpState) bumpState {
	states := []bumpState{}
	if !exhaustive {
		states = append(states, st)
	}
	for _, body := range bodies {
		states = append(states, w.stmts(body, st))
	}
	return merge(states...)
}

func caseBodies(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			out = append(out, cc.Body)
		}
	}
	return out
}

func hasDefault(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}
