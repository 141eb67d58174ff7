package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	// Path is the package's import path (module path + directory).
	Path string
	// Dir is the absolute directory the package was loaded from.
	Dir string
	// Fset is the file set shared by every package of the load.
	Fset *token.FileSet
	// Files holds the parsed non-test source files, in file-name order.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the type-checker's expression/object tables.
	Info *types.Info
	// TypeErrors collects type-checking problems. A package that builds
	// with the go tool has none; entries here indicate either broken
	// code or a loader limitation, and Run surfaces them to the caller
	// instead of silently analyzing half-typed syntax.
	TypeErrors []error
}

// LoadConfig describes the module to analyze.
type LoadConfig struct {
	// Dir is the module root (the directory holding go.mod).
	Dir string
}

// Loader parses and type-checks the packages of one module using only
// the standard library: module-internal imports are resolved to
// directories of the module and type-checked recursively, every other
// import (the standard library) is compiled from $GOROOT/src by the
// go/importer "source" importer. Test files are not loaded: the
// invariants the analyzers enforce are production-code invariants.
type Loader struct {
	fset    *token.FileSet
	dir     string
	modPath string

	std      types.ImporterFrom
	loaded   map[string]*Package // import path -> loaded module package
	checking map[string]bool     // cycle guard
}

// NewLoader builds a loader for the module described by cfg.
func NewLoader(cfg LoadConfig) (*Loader, error) {
	dir, err := filepath.Abs(cfg.Dir)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer unavailable")
	}
	return &Loader{
		fset:     fset,
		dir:      dir,
		modPath:  modPath,
		std:      std,
		loaded:   map[string]*Package{},
		checking: map[string]bool{},
	}, nil
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: reading module file: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Load resolves the given patterns to module packages and type-checks
// them. A pattern is "./..." (every package under the module root) or
// a module-relative directory such as "./internal/hin" (one package).
// Returned packages are sorted by import path.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	dirs := map[string]bool{}
	for _, pat := range patterns {
		if pat == "./..." {
			if err := l.walk(l.dir, dirs); err != nil {
				return nil, err
			}
			continue
		}
		d := filepath.Join(l.dir, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		ok, err := hasGoFiles(d)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("lint: no Go files in %s", d)
		}
		dirs[d] = true
	}
	var pkgs []*Package
	for dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// walk collects every directory under root that contains non-test Go
// files, skipping testdata, hidden and underscore-prefixed directories,
// and nested modules.
func (l *Loader) walk(root string, dirs map[string]bool) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			// A nested go.mod starts a different module.
			if _, statErr := os.Stat(filepath.Join(path, "go.mod")); statErr == nil {
				return filepath.SkipDir
			}
		}
		ok, err := hasGoFiles(path)
		if err != nil {
			return err
		}
		if ok {
			dirs[path] = true
		}
		return nil
	})
}

func hasGoFiles(dir string) (bool, error) {
	names, err := goFileNames(dir)
	return len(names) > 0, err
}

// goFileNames lists the non-test .go files of dir that the go tool
// builds on this platform, in sorted order: build.Default.MatchFile
// drops a file whose name suffix or //go:build line names another
// GOOS or GOARCH, as the go tool and go vet do.
func goFileNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// importPathFor maps a module directory to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.dir, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modPath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module root %s", dir, l.dir)
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

// loadDir parses and type-checks the package in dir (memoized).
func (l *Loader) loadDir(dir string) (*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.loaded[path]; ok {
		return pkg, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	names, err := goFileNames(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, nil
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	pkg := &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Scopes:     map[ast.Node]*types.Scope{},
		},
	}
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check never returns a usable error when conf.Error is set; the
	// collected TypeErrors carry the full story.
	pkg.Types, _ = conf.Check(path, l.fset, files, pkg.Info)
	l.loaded[path] = pkg
	return pkg, nil
}

// loaderImporter adapts the Loader to types.ImporterFrom: module
// imports load recursively, everything else goes to the stdlib source
// importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, li.dir, 0)
}

func (li *loaderImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		pkg, err := l.loadDir(filepath.Join(l.dir, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("lint: no Go files for import %q", path)
		}
		if len(pkg.TypeErrors) > 0 {
			return nil, fmt.Errorf("lint: dependency %s has type errors: %v", path, pkg.TypeErrors[0])
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}
