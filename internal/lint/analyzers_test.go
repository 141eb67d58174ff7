package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// loadFixture type-checks packages of the fixture module under
// testdata/src.
func loadFixture(t *testing.T, patterns ...string) []*Package {
	t.Helper()
	loader, err := NewLoader(LoadConfig{Dir: filepath.Join("testdata", "src")})
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load(patterns)
	if err != nil {
		t.Fatalf("Load(%v): %v", patterns, err)
	}
	for _, pkg := range pkgs {
		for _, te := range pkg.TypeErrors {
			t.Fatalf("fixture %s has type errors: %v", pkg.Path, te)
		}
	}
	return pkgs
}

// expectation is one diagnostic a fixture promises: a message substring
// on a (file, line).
type expectation struct {
	file string // base name
	line int
	sub  string
}

var wantRx = regexp.MustCompile(`// want "([^"]*)"`)

// fixtureWants extracts `// want "substr"` markers from the source
// files of the loaded packages.
func fixtureWants(t *testing.T, pkgs []*Package) []expectation {
	t.Helper()
	var out []expectation
	for _, pkg := range pkgs {
		names, err := goFileNames(pkg.Dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			data, err := os.ReadFile(filepath.Join(pkg.Dir, name))
			if err != nil {
				t.Fatal(err)
			}
			line := 1
			start := 0
			for i := 0; i <= len(data); i++ {
				if i == len(data) || data[i] == '\n' {
					for _, m := range wantRx.FindAllStringSubmatch(string(data[start:i]), -1) {
						out = append(out, expectation{file: name, line: line, sub: m[1]})
					}
					line++
					start = i + 1
				}
			}
		}
	}
	return out
}

// checkDiagnostics matches diagnostics against expectations 1:1.
func checkDiagnostics(t *testing.T, diags []Diagnostic, wants []expectation) {
	t.Helper()
	used := make([]bool, len(wants))
outer:
	for _, d := range diags {
		base := filepath.Base(d.Pos.Filename)
		for i, w := range wants {
			if used[i] || w.file != base || w.line != d.Pos.Line {
				continue
			}
			if !strings.Contains(d.Message, w.sub) {
				continue
			}
			used[i] = true
			continue outer
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for i, w := range wants {
		if !used[i] {
			t.Errorf("missing diagnostic at %s:%d containing %q", w.file, w.line, w.sub)
		}
	}
}

// TestAnalyzers runs each analyzer over its fixture package and checks
// the diagnostics against the fixture's `// want` markers. Its table and
// Suite must name the same analyzers, each exactly once: an analyzer
// dropped from Suite would otherwise pass here and never run over the
// repository.
func TestAnalyzers(t *testing.T) {
	tests := []struct {
		name     string
		analyzer *Analyzer
		patterns []string
	}{
		{"atomicmix", AtomicMix(), []string{"./atomicmix", "./atomicmix/sub"}},
		{"ctxpoll", CtxPoll(), []string{"./ctxpoll", "./ctxpoll/emigre"}},
		{"errcmp", ErrCmp(), []string{"./errcmp"}},
		{"lockorder", LockOrder(), []string{"./lockorder"}},
		{"floateq", FloatEq(), []string{"./floateq"}},
	}
	var suite, table []string
	for _, a := range Suite() {
		suite = append(suite, a.Name)
	}
	for _, tt := range tests {
		table = append(table, tt.analyzer.Name)
	}
	slices.Sort(suite)
	slices.Sort(table)
	if !slices.Equal(suite, table) {
		t.Errorf("Suite %v and the table %v name different analyzers", suite, table)
	}
	if len(slices.Compact(slices.Clone(suite))) != len(suite) {
		t.Errorf("Suite registers an analyzer twice: %v", suite)
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.analyzer.Name != tt.name {
				t.Fatalf("row %q runs analyzer %q", tt.name, tt.analyzer.Name)
			}
			pkgs := loadFixture(t, tt.patterns...)
			res := Analyze(pkgs, []*Analyzer{tt.analyzer})
			checkDiagnostics(t, res.Diagnostics, fixtureWants(t, pkgs))
		})
	}
}

// TestFloatEqSkipsHelperPackage checks the fmath-named escape hatch:
// the helper package may spell out exact comparisons inline.
func TestFloatEqSkipsHelperPackage(t *testing.T) {
	pkgs := loadFixture(t, "./floateq/fmath")
	res := Analyze(pkgs, []*Analyzer{FloatEq()})
	for _, d := range res.Diagnostics {
		t.Errorf("unexpected diagnostic in fmath-named package: %s", d)
	}
}

// TestDirectives covers the //lint:allow machinery: unknown analyzers
// and missing reasons are themselves reported (and suppress nothing),
// well-formed directives suppress their line, the next line, or the
// whole function when placed in a doc comment. Expectations are
// hard-coded because a trailing marker comment on a directive line
// would be parsed as the directive's reason.
func TestDirectives(t *testing.T) {
	pkgs := loadFixture(t, "./directive")
	res := Analyze(pkgs, []*Analyzer{FloatEq()})
	wants := []expectation{
		{file: "directive.go", line: 9, sub: `unknown analyzer "nosuchcheck"`},
		{file: "directive.go", line: 10, sub: "fmath"},
		{file: "directive.go", line: 16, sub: "needs a reason"},
		{file: "directive.go", line: 17, sub: "fmath"},
	}
	checkDiagnostics(t, res.Diagnostics, wants)
}

// TestSuiteOverWholeFixtureModule runs the full suite over every
// fixture package at once: analyzers must stay inside their scoped
// package names and diagnostics must come out sorted.
func TestSuiteOverWholeFixtureModule(t *testing.T) {
	pkgs := loadFixture(t, "./ctxpoll", "./ctxpoll/emigre", "./atomicmix", "./atomicmix/sub", "./lockorder")
	res := Analyze(pkgs, Suite())
	// The ctxpoll fixture is a package named ppr with no float or error
	// comparisons.
	wants := fixtureWants(t, pkgs)
	checkDiagnostics(t, res.Diagnostics, wants)
	for i := 1; i < len(res.Diagnostics); i++ {
		a, b := res.Diagnostics[i-1].Pos, res.Diagnostics[i].Pos
		if a.Filename > b.Filename || (a.Filename == b.Filename && a.Line > b.Line) {
			t.Errorf("diagnostics out of order: %s before %s", res.Diagnostics[i-1], res.Diagnostics[i])
		}
	}
}
