package analysis

import (
	"errors"
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

// A Package is one parsed and type-checked package, ready for analysis.
type Package struct {
	// Path is the import path the package was loaded under. Fixture
	// packages may be loaded "as" a proof-path import path so that
	// path-scoped analyzers apply to them (see Loader.LoadDirAs).
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader parses and type-checks packages of the enclosing module using
// only the standard library: module-internal imports are resolved from
// the module directory, everything else through the GOROOT source
// importer. One Loader memoizes every package it has checked, so loading
// the whole tree type-checks each package exactly once.
type Loader struct {
	ModulePath string
	ModuleDir  string

	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*Package
}

// inProgress marks a package currently being type-checked, to turn
// import cycles into errors instead of infinite recursion.
var inProgress = &Package{}

// NewLoader creates a Loader for the module rooted at moduleDir
// (the directory containing go.mod).
func NewLoader(moduleDir string) (*Loader, error) {
	modulePath, err := modulePathOf(moduleDir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModulePath: modulePath,
		ModuleDir:  moduleDir,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
	}, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("zkvet: no go.mod above %s", dir)
		}
		dir = parent
	}
}

func modulePathOf(moduleDir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(moduleDir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if path, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(path), nil
		}
	}
	return "", fmt.Errorf("zkvet: no module line in %s/go.mod", moduleDir)
}

// Import implements types.Importer over the module + GOROOT split.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// Load type-checks the module package with the given import path
// (memoized).
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		if pkg == inProgress {
			return nil, fmt.Errorf("zkvet: import cycle through %s", path)
		}
		return pkg, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	dir := filepath.Join(l.ModuleDir, filepath.FromSlash(rel))
	l.pkgs[path] = inProgress
	pkg, err := l.check(dir, path)
	if err != nil {
		delete(l.pkgs, path)
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// LoadDirAs type-checks the single package in dir under an arbitrary
// import path. The analysistest fixtures use it to load testdata
// packages as proof-path import paths, so path-scoped analyzers treat
// them as the packages they stand in for. The result is not memoized.
func (l *Loader) LoadDirAs(dir, asPath string) (*Package, error) {
	return l.check(dir, asPath)
}

func (l *Loader) check(dir, path string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	// Keep the files `go build` would: build.Default.MatchFile applies the
	// _GOOS/_GOARCH name suffixes and //go:build lines (and drops "."/"_"
	// prefixes), so a file pair split on a constraint contributes one side,
	// not a redeclaration.
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if match {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("zkvet: no buildable Go files in %s", dir)
	}
	sort.Strings(names)

	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("zkvet: type-checking %s: %w", path, errors.Join(typeErrs...))
	}
	if err != nil {
		return nil, fmt.Errorf("zkvet: type-checking %s: %w", path, err)
	}
	return &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// ModulePackages returns the import paths of every buildable package in
// the module, in sorted order, skipping testdata and hidden directories.
// It is the loader-side expansion of the ./... pattern.
func (l *Loader) ModulePackages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.ModuleDir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != l.ModuleDir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return nil
		}
		rel, err := filepath.Rel(l.ModuleDir, filepath.Dir(p))
		if err != nil {
			return err
		}
		path := l.ModulePath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if len(paths) == 0 || paths[len(paths)-1] != path {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	// WalkDir visits files of one directory together, but dedupe defensively.
	out := paths[:0]
	for _, p := range paths {
		if len(out) == 0 || out[len(out)-1] != p {
			out = append(out, p)
		}
	}
	return out, nil
}
