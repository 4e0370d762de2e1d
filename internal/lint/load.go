package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked (non-test) Go package, the unit an
// Analyzer runs over.
type Package struct {
	// Path is the import path ("repro/internal/qos").
	Path string
	// Dir is the package directory on disk.
	Dir string
	// Fset is the file set shared by every package of the run.
	Fset *token.FileSet
	// Files are the package's non-test files, parsed with comments.
	Files []*ast.File
	// Types and Info carry the go/types results for the package.
	Types *types.Package
	Info  *types.Info
}

// Loader loads packages of a single module from source, using only the
// standard library: repo-internal imports are parsed and type-checked
// recursively, standard-library imports go through go/importer's source
// importer. Load itself skips test files (*_test.go) — the canonical
// compilation of every package is test-free, which is what the call graph
// is built over; LoadTests produces the additional test views on demand.
type Loader struct {
	Fset *token.FileSet

	root     string // module root directory (contains go.mod)
	module   string // module path from go.mod
	std      types.Importer
	pkgs     map[string]*Package // by import path
	checking map[string]bool     // import-cycle guard
}

// NewLoader returns a Loader for the module rooted at dir (the directory
// holding go.mod).
func NewLoader(root string) (*Loader, error) {
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:     fset,
		root:     root,
		module:   mod,
		std:      importer.ForCompiler(fset, "source", nil),
		pkgs:     map[string]*Package{},
		checking: map[string]bool{},
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Load resolves the patterns to package directories and loads each one.
// Supported patterns: "./..." (the whole module), "dir/..." (a subtree),
// and plain directories, all relative to the module root (absolute paths
// inside the module also work).
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	dirSet := map[string]bool{}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive, pat = true, rest
		} else if pat == "..." {
			recursive, pat = true, "."
		}
		if !filepath.IsAbs(pat) {
			pat = filepath.Join(l.root, pat)
		}
		pat = filepath.Clean(pat)
		if !recursive {
			dirSet[pat] = true
			continue
		}
		err := filepath.WalkDir(pat, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if skipDir(d.Name()) && path != pat {
				return filepath.SkipDir
			}
			ok, err := hasGoFiles(path)
			if err != nil {
				return err
			}
			if ok {
				dirSet[path] = true
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("lint: walking %s: %w", pat, err)
		}
	}
	dirs := make([]string, 0, len(dirSet))
	for d := range dirSet {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.root, dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("lint: directory %s is outside module root %s", dir, l.root)
		}
		path := l.module
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		p, err := l.check(path, dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// skipDir reports whether a directory name is never part of the module's
// package tree: VCS metadata, vendored code, fixtures, generated results,
// and underscore/dot-prefixed directories (mirroring the go tool).
func skipDir(name string) bool {
	switch name {
	case "testdata", "vendor", "results":
		return true
	}
	return strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// hasGoFiles reports whether dir directly contains at least one non-test Go
// file.
func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if !e.IsDir() && isSourceFile(e.Name()) {
			return true, nil
		}
	}
	return false, nil
}

func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// check parses and type-checks one package directory, caching by import
// path. Imports of sibling module packages recurse through the Loader.
func (l *Loader) check(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: reading %s: %w", dir, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !isSourceFile(e.Name()) {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, e.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	p, err := l.checkFiles(path, dir, files, l)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// Packages returns every package loaded so far — the requested patterns
// plus their module-internal import closure — sorted by import path, so
// whole-program passes over the result are deterministic.
func (l *Loader) Packages() []*Package {
	paths := make([]string, 0, len(l.pkgs))
	for p := range l.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, p := range paths {
		out = append(out, l.pkgs[p])
	}
	return out
}

// LoadTests loads the test files of an already-loaded package. It returns
// up to two additional package views: the package re-type-checked with its
// in-package _test.go files merged in ("augmented"), and the external
// foo_test package, either of which is nil when the directory has no such
// files.
//
// The augmented view is a fresh compilation — new *types.Package, new
// *types.Info — but its imports still resolve through the Loader's cache,
// so an in-package test importing a package that itself imports the package
// under test sees the cached non-test compilation rather than tripping the
// import-cycle guard (exactly how `go test` builds test binaries). The
// external package imports the augmented view instead, as `go test` does,
// so a hook an export_test.go file declares is visible to it.
func (l *Loader) LoadTests(pkg *Package) (aug, ext *Package, err error) {
	entries, err := os.ReadDir(pkg.Dir)
	if err != nil {
		return nil, nil, fmt.Errorf("lint: reading %s: %w", pkg.Dir, err)
	}
	var inFiles, extFiles []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(pkg.Dir, e.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, fmt.Errorf("lint: %w", err)
		}
		if f.Name.Name == pkg.Types.Name() {
			inFiles = append(inFiles, f)
		} else {
			extFiles = append(extFiles, f)
		}
	}
	var extImporter types.Importer = l
	if len(inFiles) > 0 {
		files := append(append([]*ast.File{}, pkg.Files...), inFiles...)
		aug, err = l.checkFiles(pkg.Path, pkg.Dir, files, l)
		if err != nil {
			return nil, nil, err
		}
		extImporter = &testVariant{l: l, under: pkg.Path, pkgs: map[string]*types.Package{pkg.Path: aug.Types}}
	}
	if len(extFiles) > 0 {
		ext, err = l.checkFiles(pkg.Path+"_test", pkg.Dir, extFiles, extImporter)
		if err != nil {
			return nil, nil, err
		}
	}
	return aug, ext, nil
}

// testVariant resolves the imports of an external test package as `go
// test` does: the package under test is its augmented compilation, and
// every module package importing it, directly or not, is recompiled
// against that compilation, so the test sees one set of its types.
type testVariant struct {
	l     *Loader
	under string                    // import path of the package under test
	pkgs  map[string]*types.Package // resolved imports, by path
}

func (v *testVariant) Import(path string) (*types.Package, error) {
	if tp, ok := v.pkgs[path]; ok {
		return tp, nil
	}
	tp, err := v.l.Import(path)
	if err != nil {
		return nil, err
	}
	if p, inModule := v.l.pkgs[path]; inModule && imports(tp, v.under, map[*types.Package]bool{}) {
		re, err := v.l.checkFiles(path, p.Dir, p.Files, v)
		if err != nil {
			return nil, err
		}
		tp = re.Types
	}
	v.pkgs[path] = tp
	return tp, nil
}

// imports reports whether pkg imports the package at path, directly or
// through other imports.
func imports(pkg *types.Package, path string, seen map[*types.Package]bool) bool {
	if seen[pkg] {
		return false
	}
	seen[pkg] = true
	for _, imp := range pkg.Imports() {
		if imp.Path() == path || imports(imp, path, seen) {
			return true
		}
	}
	return false
}

// checkFiles type-checks an explicit file list as one package, resolving
// imports through imp. It does not touch the Loader's cache: check caches
// the canonical non-test compilations the call graph is built on, and the
// test views must not shadow them.
func (l *Loader) checkFiles(path, dir string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var errs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %v (%d error(s))", path, errs[0], len(errs))
	}
	return &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}, nil
}

// Import implements types.Importer: module-internal paths are loaded from
// source through the Loader, everything else (the standard library) through
// the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.module)))
		p, err := l.check(path, dir)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}
