// Package lint is a stdlib-only static-analysis suite enforcing the
// codebase's correctness invariants: the conventions PRs establish are
// machine-checked here instead of re-audited by hand. The suite is
// built purely on go/ast, go/parser and go/types — no
// golang.org/x/tools dependency — and runs one way: TestRepoIsClean
// applies every analyzer to the whole module under `go test ./...`.
//
// Suite holds five analyzers, each for a bug class no test, -race or
// go vet catches:
//
//   - ctxpoll: unbounded search loops in ppr/emigre poll cancellation.
//   - floateq: float ==/!= goes through the internal/fmath helpers.
//   - errcmp: errors are compared with errors.Is, not == or !=.
//   - lockorder (whole program): struct-owned mutexes are acquired in
//     an acyclic order and never reacquired while held.
//   - atomicmix: no sync/atomic function is used; every atomic is typed,
//     and go vet's copylocks reports a copied one.
//
// Other invariants are held at run time instead: hin's
// TestGraphMutatorsBumpVersion guards the graph's version stamp,
// fault.Register panics on a duplicate site and server's
// TestFailpointCatalog pins the site list, obs.Registry panics on a
// family requested with another kind, help string or bucket layout,
// internal/testleak fails a test that leaves a goroutine running, and
// the cache A/B and push-count tests of emigre and rec pin that vectors
// are served through the cache.
//
// A diagnostic can be suppressed with a directive comment
//
//	//lint:allow <analyzer> <reason>
//
// placed on the flagged line, on the line directly above it, or in the
// doc comment of the enclosing function declaration (which approves
// the whole function — how the epsilon/tie-break helpers in
// internal/fmath are allowed to spell out the comparisons everyone
// else must route through them). The reason is mandatory: an
// unexplained suppression is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer checks one invariant. Most analyzers inspect one package
// at a time via Run; whole-program analyzers (lock ordering needs the
// cross-package call graph) set RunModule instead and receive every
// loaded package in one pass. Exactly one of the two must be set.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and directives.
	Name string
	// Run inspects one package and reports violations via pass.Reportf.
	Run func(pass *Pass)
	// RunModule inspects every loaded package at once — the hook for
	// analyses that need the whole-module call graph.
	RunModule func(pass *ModulePass)
}

// Suite returns the full analyzer suite in stable order.
func Suite() []*Analyzer {
	return []*Analyzer{
		AtomicMix(),
		CtxPoll(),
		ErrCmp(),
		FloatEq(),
		LockOrder(),
	}
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	// Analyzer names the analyzer that fired.
	Analyzer string
	// Pos locates the violation.
	Pos token.Position
	// Message describes the violation.
	Message string
}

// String renders the diagnostic in the canonical
// "file:line:col: [analyzer] message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// reporter is what both kinds of pass share: the analyzer being run,
// the file set translating token positions (shared across the load)
// and the diagnostics collected so far.
type reporter struct {
	Analyzer *Analyzer
	Fset     *token.FileSet

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *reporter) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	reporter
	// Pkg is the package under analysis.
	Pkg *Package
}

// ModulePass carries one (analyzer, whole module) unit of work: every
// package of the load at once, for analyses whose facts cross package
// boundaries (the lock-acquisition graph, cross-package call chains).
type ModulePass struct {
	reporter
	// Pkgs holds every loaded package, sorted by import path.
	Pkgs []*Package
}

// Result is the outcome of running a suite over a set of packages.
type Result struct {
	// Diagnostics holds every surviving (non-suppressed) violation,
	// sorted by file, line, column, analyzer.
	Diagnostics []Diagnostic
	// Packages counts the packages analyzed.
	Packages int
	// TypeErrors aggregates type-checking problems across packages. A
	// tree that builds cleanly has none; anything here means the
	// analyzers ran over incomplete type information.
	TypeErrors []error
}

// Run loads the packages matched by patterns from the module described
// by cfg and applies every analyzer, honoring //lint:allow directives.
func Run(cfg LoadConfig, analyzers []*Analyzer, patterns []string) (*Result, error) {
	loader, err := NewLoader(cfg)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.Load(patterns)
	if err != nil {
		return nil, err
	}
	return Analyze(pkgs, analyzers), nil
}

// Analyze applies the analyzers to already-loaded packages:
// per-package analyzers to each package in turn, module analyzers to
// the whole set at once. Directive suppression keys on (file, line), so
// collecting every package's directives up front before filtering is
// equivalent to the per-package view while also covering module-wide
// diagnostics.
func Analyze(pkgs []*Package, analyzers []*Analyzer) *Result {
	res := &Result{Packages: len(pkgs)}
	// Directive names validate against the whole suite, not just the
	// analyzers selected for this run: a fixture run of ctxpoll alone
	// must not flag every //lint:allow floateq in it as unknown.
	known := map[string]bool{}
	for _, a := range Suite() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var raw []Diagnostic
	dirs := &directives{allow: map[allowKey]bool{}}
	for _, pkg := range pkgs {
		res.TypeErrors = append(res.TypeErrors, pkg.TypeErrors...)
		collectDirectives(pkg, known, &raw, dirs)
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{reporter{a, pkg.Fset, &raw}, pkg}
			a.Run(pass)
		}
	}
	if len(pkgs) > 0 {
		for _, a := range analyzers {
			if a.RunModule == nil {
				continue
			}
			pass := &ModulePass{reporter{a, pkgs[0].Fset, &raw}, pkgs}
			a.RunModule(pass)
		}
	}
	for _, d := range raw {
		if !dirs.suppressed(d) {
			res.Diagnostics = append(res.Diagnostics, d)
		}
	}
	sort.Slice(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i], res.Diagnostics[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return res
}

// allowKey identifies the scope one directive suppresses: an analyzer
// on one line of one file.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

type directives struct {
	allow map[allowKey]bool
}

const allowPrefix = "//lint:allow "

// collectDirectives parses every //lint:allow comment of the package
// into d. A line directive suppresses its own line and the next line; a
// directive in a function declaration's doc comment suppresses the
// whole function body. Malformed directives (unknown analyzer, missing
// reason) are appended to raw as diagnostics so they cannot silently
// mask anything.
func collectDirectives(pkg *Package, known map[string]bool, raw *[]Diagnostic, d *directives) {
	fset := pkg.Fset
	for _, file := range pkg.Files {
		funcDoc := map[*ast.CommentGroup]*ast.FuncDecl{}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
				funcDoc[fd.Doc] = fd
			}
		}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok {
					continue
				}
				name, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
				pos := fset.Position(c.Pos())
				if !known[name] {
					*raw = append(*raw, Diagnostic{
						Analyzer: "directive",
						Pos:      pos,
						Message:  fmt.Sprintf("//lint:allow names unknown analyzer %q", name),
					})
					continue
				}
				if strings.TrimSpace(reason) == "" {
					*raw = append(*raw, Diagnostic{
						Analyzer: "directive",
						Pos:      pos,
						Message:  fmt.Sprintf("//lint:allow %s needs a reason", name),
					})
					continue
				}
				if fd, isDoc := funcDoc[cg]; isDoc {
					start := fset.Position(fd.Pos()).Line
					end := fset.Position(fd.End()).Line
					for line := start; line <= end; line++ {
						d.allow[allowKey{pos.Filename, line, name}] = true
					}
					continue
				}
				d.allow[allowKey{pos.Filename, pos.Line, name}] = true
				d.allow[allowKey{pos.Filename, pos.Line + 1, name}] = true
			}
		}
	}
}

func (d *directives) suppressed(diag Diagnostic) bool {
	return d.allow[allowKey{diag.Pos.Filename, diag.Pos.Line, diag.Analyzer}]
}
