package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockOrder derives the module's lock-acquisition graph and reports the
// two static deadlock shapes it exposes:
//
//   - acquisition-order cycles: somewhere lock A is acquired while B is
//     held and somewhere else B is acquired while A is held — two
//     goroutines interleaving those paths deadlock;
//   - same-lock reacquisition: while holding A, a call chain reaches a
//     function that acquires A again — an immediate self-deadlock for
//     sync.Mutex, and for RWMutex a deadlock the moment a writer
//     arrives between the two read acquisitions.
//
// Lock identity is the declared mutex storage: a struct-owned
// sync.Mutex/RWMutex field (every instance of pprcache's shard.mu is
// one lock node — conservative, and exactly right for the ordering
// discipline) or a package-level mutex variable. RLock and Lock map to
// the same node. Locals are out of scope: they cannot participate in a
// cross-function cycle.
//
// The analysis is whole-program on the module loader: each function
// body (and each function literal, with a fresh held-set — goroutine
// and deferred bodies do not inherit the spawner's locks textually) is
// scanned in source order tracking the held set — Lock/RLock pushes,
// Unlock/RUnlock pops the most recent non-deferred match, defer
// Unlock pins the lock to function exit. Calls resolved through
// identifiers and selectors feed a call graph over which each
// function's transitively-acquired lock set is computed, so an edge
// A→B is found whether B is locked inline or three calls deep in
// another package. Calls through function values (callbacks, struct
// fields) are not resolvable statically; invariants there stay
// documented at the callback's contract (obs.Registry's "fn runs with
// the registry lock held" note is the canonical example).
func LockOrder() *Analyzer {
	a := &Analyzer{
		Name: "lockorder",
	}
	a.RunModule = func(pass *ModulePass) {
		lo := &lockOrder{
			pass:     pass,
			index:    map[types.Object]*lockSummary{},
			acquires: map[*lockSummary]map[*types.Var]bool{},
			names:    map[*types.Var]string{},
		}
		// Summarize every declared function, then every function
		// literal (each with its own held state).
		for _, pkg := range pass.Pkgs {
			if pkg.Info == nil {
				continue
			}
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					sum := lo.summarize(pkg, fd.Body)
					if obj := pkg.Info.Defs[fd.Name]; obj != nil {
						lo.index[obj] = sum
					}
					lo.all = append(lo.all, sum)
				}
			}
		}
		lo.report()
	}
	return a
}

// lockSummary is one function's (or function literal's) lock facts.
type lockSummary struct {
	pkg *Package
	// direct is the set of locks acquired in this body.
	direct map[*types.Var]bool
	// edges records B acquired at pos while A was held, in this body.
	edges []lockEdge
	// heldCalls records resolved calls made while holding locks.
	heldCalls []lockHeldCall
	// callees is every statically-resolved callee (held or not).
	callees []types.Object
	// reacquired records same-lock double acquisitions in this body.
	reacquired []lockEdge
	// lits are nested function literals, summarized independently.
	lits []*lockSummary
}

// lockEdge is one ordered acquisition: to acquired at pos with from held.
type lockEdge struct {
	from, to *types.Var
	pos      token.Pos
}

// lockHeldCall is one call made with locks held.
type lockHeldCall struct {
	held   []*types.Var
	callee types.Object
	pos    token.Pos
}

type lockOrder struct {
	pass     *ModulePass
	index    map[types.Object]*lockSummary
	all      []*lockSummary
	acquires map[*lockSummary]map[*types.Var]bool
	names    map[*types.Var]string
}

// heldLock is one entry of the scan-time held stack.
type heldLock struct {
	obj      *types.Var
	deferred bool // released by a defer: held to function exit
}

// summarize scans body in source order, maintaining the held-lock
// stack. Nested function literals are cut out and summarized with a
// fresh stack (their bodies run at an unknowable time relative to the
// enclosing critical section); everything else is processed at its
// textual position, which matches execution order for straight-line
// locking code and errs conservative in branches.
func (lo *lockOrder) summarize(pkg *Package, body ast.Node) *lockSummary {
	sum := &lockSummary{pkg: pkg, direct: map[*types.Var]bool{}}
	var held []heldLock
	skip := map[*ast.CallExpr]bool{}
	info := pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			sub := lo.summarize(pkg, x.Body)
			sum.lits = append(sum.lits, sub)
			return false
		case *ast.DeferStmt:
			if v, method, ok := lo.lockTarget(pkg, x.Call); ok && isUnlockMethod(method) {
				// defer mu.Unlock(): pin the most recent matching
				// acquisition to function exit.
				for i := len(held) - 1; i >= 0; i-- {
					if held[i].obj == v && !held[i].deferred {
						held[i].deferred = true
						break
					}
				}
				skip[x.Call] = true
			}
			return true
		case *ast.CallExpr:
			if skip[x] {
				return true
			}
			if v, method, ok := lo.lockTarget(pkg, x); ok {
				if isUnlockMethod(method) {
					for i := len(held) - 1; i >= 0; i-- {
						if held[i].obj == v && !held[i].deferred {
							held = append(held[:i], held[i+1:]...)
							break
						}
					}
					return true
				}
				// Lock/RLock: record ordering against everything held.
				for _, h := range held {
					if h.obj == v {
						sum.reacquired = append(sum.reacquired, lockEdge{from: v, to: v, pos: x.Pos()})
					} else {
						sum.edges = append(sum.edges, lockEdge{from: h.obj, to: v, pos: x.Pos()})
					}
				}
				sum.direct[v] = true
				held = append(held, heldLock{obj: v})
				return true
			}
			if callee := calleeObject(info, x); callee != nil {
				sum.callees = append(sum.callees, callee)
				if len(held) > 0 {
					hc := lockHeldCall{callee: callee, pos: x.Pos()}
					for _, h := range held {
						hc.held = append(hc.held, h.obj)
					}
					sum.heldCalls = append(sum.heldCalls, hc)
				}
			}
		}
		return true
	})
	return sum
}

// lockTarget resolves call to the mutex storage it locks or unlocks:
// the *types.Var of a struct-owned field or package-level variable of
// type sync.Mutex/sync.RWMutex, whether named explicitly (s.mu.Lock())
// or promoted from an embedded mutex (s.Lock()).
func (lo *lockOrder) lockTarget(pkg *Package, call *ast.CallExpr) (*types.Var, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !isMutexMethodName(sel.Sel.Name) {
		return nil, "", false
	}
	info := pkg.Info
	// The method must really be sync's: its Func object lives in
	// package sync with a Mutex/RWMutex receiver.
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, "", false
	}
	var v *types.Var
	if s := info.Selections[sel]; s != nil && len(s.Index()) > 1 {
		// Promoted through embedded fields: walk the index path to the
		// mutex field itself.
		cur := typeOf(info, sel.X)
		ix := s.Index()
		for _, i := range ix[:len(ix)-1] {
			named := namedOf(cur)
			if named == nil {
				return nil, "", false
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok || i >= st.NumFields() {
				return nil, "", false
			}
			v = st.Field(i)
			cur = v.Type()
		}
	} else {
		v = varOfExpr(info, sel.X)
	}
	if v == nil || !isMutexType(v.Type()) || !trackableVar(v) {
		return nil, "", false
	}
	if _, ok := lo.names[v]; !ok {
		lo.names[v] = lockDisplayName(pkg, info, sel.X, v)
	}
	return v, sel.Sel.Name, true
}

func isMutexMethodName(name string) bool {
	switch name {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return true
	}
	return false
}

func isUnlockMethod(name string) bool {
	return name == "Unlock" || name == "RUnlock"
}

// isMutexType reports whether t is (a pointer to) sync.Mutex or
// sync.RWMutex.
func isMutexType(t types.Type) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// lockDisplayName renders a lock identity for diagnostics:
// "pkg.Type.field" for struct-owned fields, "pkg.var" for package
// variables, with a best-effort owner for anonymous-struct fields.
func lockDisplayName(pkg *Package, info *types.Info, recv ast.Expr, v *types.Var) string {
	pkgName := ""
	if v.Pkg() != nil {
		pkgName = v.Pkg().Name()
	}
	if !v.IsField() {
		return pkgName + "." + v.Name()
	}
	// recv is the expression the mutex was selected from: x.mu has the
	// owner's type on x; a promoted s.Lock() has it on recv itself.
	owner := recv
	if sel, ok := recv.(*ast.SelectorExpr); ok && sel.Sel != nil {
		if fv, _ := info.Uses[sel.Sel].(*types.Var); fv == v {
			owner = sel.X
		}
	}
	if named := namedOf(typeOf(info, owner)); named != nil {
		return pkgName + "." + named.Obj().Name() + "." + v.Name()
	}
	if id, ok := owner.(*ast.Ident); ok && id != nil {
		return pkgName + "." + id.Name + "." + v.Name()
	}
	return pkgName + "." + v.Name()
}

// calleeObject resolves the called function to its object: package
// functions, methods, and imported functions. Function values resolve
// to their variable, which the index will not contain — they simply
// contribute nothing to the call graph.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// acquiresOf computes the transitive lock-acquisition set of one
// summary: its direct locks plus everything reachable through resolved
// calls (memoized; recursion through the call graph terminates via the
// in-progress marker).
func (lo *lockOrder) acquiresOf(sum *lockSummary, visiting map[*lockSummary]bool) map[*types.Var]bool {
	if got, ok := lo.acquires[sum]; ok {
		return got
	}
	if visiting[sum] {
		return nil
	}
	visiting[sum] = true
	out := map[*types.Var]bool{}
	for v := range sum.direct {
		out[v] = true
	}
	for _, callee := range sum.callees {
		if sub, ok := lo.index[callee]; ok {
			for v := range lo.acquiresOf(sub, visiting) {
				out[v] = true
			}
		}
	}
	delete(visiting, sum)
	lo.acquires[sum] = out
	return out
}

// report folds every summary into the module lock graph and emits the
// diagnostics. Interprocedural edges come from held calls: a call with
// A held into a function that transitively acquires B adds A→B (and
// A==B is the reacquisition case).
func (lo *lockOrder) report() {
	type edgeKey struct{ from, to *types.Var }
	firstEdge := map[edgeKey]token.Pos{}
	adj := map[*types.Var]map[*types.Var]bool{}
	addEdge := func(e lockEdge) {
		k := edgeKey{e.from, e.to}
		if p, ok := firstEdge[k]; !ok || e.pos < p {
			firstEdge[k] = e.pos
		}
		if adj[e.from] == nil {
			adj[e.from] = map[*types.Var]bool{}
		}
		adj[e.from][e.to] = true
	}

	var flat []*lockSummary
	var flatten func(s *lockSummary)
	flatten = func(s *lockSummary) {
		flat = append(flat, s)
		for _, l := range s.lits {
			flatten(l)
		}
	}
	for _, s := range lo.all {
		flatten(s)
	}

	for _, s := range flat {
		for _, e := range s.edges {
			addEdge(e)
		}
		for _, e := range s.reacquired {
			lo.pass.Reportf(e.pos, "%s acquired while already held — self-deadlock (RWMutex read re-entry deadlocks once a writer queues between the two)", lo.name(e.from))
		}
		for _, hc := range s.heldCalls {
			callee, ok := lo.index[hc.callee]
			if !ok {
				continue
			}
			acq := lo.acquiresOf(callee, map[*lockSummary]bool{})
			for _, heldObj := range hc.held {
				for v := range acq {
					if v == heldObj {
						lo.pass.Reportf(hc.pos, "call to %s while holding %s, which it acquires again — self-deadlock", hc.callee.Name(), lo.name(heldObj))
						continue
					}
					addEdge(lockEdge{from: heldObj, to: v, pos: hc.pos})
				}
			}
		}
	}

	// Cycle detection: an edge is in a cycle iff its head can reach its
	// tail. Report every such edge at its first acquisition site, in
	// deterministic order.
	keys := make([]edgeKey, 0, len(firstEdge))
	for k := range firstEdge {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return firstEdge[keys[i]] < firstEdge[keys[j]]
	})
	for _, k := range keys {
		if lo.reaches(adj, k.to, k.from) {
			lo.pass.Reportf(firstEdge[k], "lock ordering cycle: %s acquired while %s is held, but elsewhere %s is acquired while %s is held", lo.name(k.to), lo.name(k.from), lo.name(k.from), lo.name(k.to))
		}
	}
}

// reaches reports whether to is reachable from from in the lock graph.
func (lo *lockOrder) reaches(adj map[*types.Var]map[*types.Var]bool, from, to *types.Var) bool {
	seen := map[*types.Var]bool{}
	var dfs func(v *types.Var) bool
	dfs = func(v *types.Var) bool {
		if v == to {
			return true
		}
		if seen[v] {
			return false
		}
		seen[v] = true
		for next := range adj[v] {
			if dfs(next) {
				return true
			}
		}
		return false
	}
	return dfs(from)
}

// name renders a lock's display name (resolution always recorded one
// at the first acquisition site).
func (lo *lockOrder) name(v *types.Var) string {
	if n, ok := lo.names[v]; ok {
		return n
	}
	return v.Name()
}
