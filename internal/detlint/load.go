package detlint

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
	"sync"
)

// Module is one loaded Go module: the shared FileSet, the module path
// from go.mod, and every package type-checked so far.
type Module struct {
	Root string // absolute directory containing go.mod
	Path string // module path declared by go.mod
	Fset *token.FileSet

	pkgs map[string]*Package // keyed by import path
	std  types.Importer      // stdlib resolver (shared go/importer "source")

	// Filled in by Run before the analysis phase; immutable during it.
	sup   *suppressions              // parsed //detlint:ignore directives
	cg    *callGraph                 // whole-module call graph
	clock map[*types.Func]*taintFact // functions that reach the wall clock
}

// allPackages returns every successfully loaded package — the analysis
// targets plus their module-internal dependencies — sorted by import
// path. The call graph is built over this set so call chains through
// non-target packages are still followed.
func (m *Module) allPackages() []*Package {
	pkgs := make([]*Package, 0, len(m.pkgs))
	for _, p := range m.pkgs {
		if p != nil {
			pkgs = append(pkgs, p)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs
}

// Package is one parsed and type-checked package of the module.
type Package struct {
	ImportPath string // e.g. "coalloc/internal/sim"
	Rel        string // module-relative dir, "" for the root package
	Dir        string // absolute directory
	Name       string // package name from the package clauses
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// load locates the module containing dir, expands the patterns to package
// directories, and parses and type-checks each (plus any module-internal
// dependencies) bottom-up. Only non-test files are loaded: the rules
// govern production code, and tests legitimately use wall clocks and maps.
func load(dir string, patterns []string) (*Module, []*Package, error) {
	base, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}
	root, modPath, err := findModule(base)
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	mod := &Module{
		Root: root,
		Path: modPath,
		Fset: fset,
		pkgs: make(map[string]*Package),
		std:  stdImporter{},
	}
	var dirs []string
	seen := make(map[string]bool)
	for _, pat := range patterns {
		expanded, err := expandPattern(base, pat)
		if err != nil {
			return nil, nil, err
		}
		for _, d := range expanded {
			if !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
			}
		}
	}
	sort.Strings(dirs)
	var targets []*Package
	for _, d := range dirs {
		rel, err := filepath.Rel(root, d)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, nil, fmt.Errorf("detlint: %s is outside module %s", d, root)
		}
		pkg, err := mod.ensure(importPathFor(modPath, rel), nil)
		if err != nil {
			return nil, nil, err
		}
		if pkg != nil {
			targets = append(targets, pkg)
		}
	}
	return mod, targets, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, path string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("detlint: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("detlint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// importPathFor maps a module-relative directory to an import path.
func importPathFor(modPath, rel string) string {
	if rel == "." || rel == "" {
		return modPath
	}
	return modPath + "/" + filepath.ToSlash(rel)
}

// expandPattern resolves one package pattern to absolute directories. The
// recursive form "dir/..." walks the tree, skipping hidden directories
// and, per Go tool convention, "testdata" and "vendor".
func expandPattern(base, pat string) ([]string, error) {
	recursive := false
	switch {
	case pat == "...":
		recursive, pat = true, "."
	case strings.HasSuffix(pat, "/..."):
		recursive, pat = true, strings.TrimSuffix(pat, "/...")
	}
	dir := pat
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(base, dir)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		return nil, fmt.Errorf("detlint: pattern %q: %s is not a directory", pat, dir)
	}
	if !recursive {
		if ok, err := hasGoFiles(dir); err != nil {
			return nil, err
		} else if !ok {
			return nil, fmt.Errorf("detlint: no Go files in %s", dir)
		}
		return []string{dir}, nil
	}
	var dirs []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != dir && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ok, err := hasGoFiles(path)
		if err != nil {
			return err
		}
		if ok {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// hasGoFiles reports whether dir directly contains at least one non-test
// Go source file.
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
	return strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") &&
		!strings.HasPrefix(name, "_")
}

// ensure parses and type-checks the package at importPath (which must be
// inside the module), loading module-internal dependencies first. stack
// detects import cycles. It returns nil for directories with no non-test
// Go files.
func (m *Module) ensure(importPath string, stack []string) (*Package, error) {
	if pkg, ok := m.pkgs[importPath]; ok {
		return pkg, nil
	}
	for _, s := range stack {
		if s == importPath {
			return nil, fmt.Errorf("detlint: import cycle: %s", strings.Join(append(stack, importPath), " -> "))
		}
	}
	rel := "."
	if importPath != m.Path {
		rel = strings.TrimPrefix(importPath, m.Path+"/")
	}
	dir := filepath.Join(m.Root, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("detlint: %s: %w", importPath, err)
	}
	var files []*ast.File
	name := ""
	for _, e := range entries {
		if e.IsDir() || !isSourceFile(e.Name()) {
			continue
		}
		f, err := parser.ParseFile(m.Fset, filepath.Join(dir, e.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if name == "" {
			name = f.Name.Name
		} else if f.Name.Name != name {
			return nil, fmt.Errorf("detlint: %s: mixed packages %s and %s", dir, name, f.Name.Name)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		m.pkgs[importPath] = nil
		return nil, nil
	}
	// Load module-internal imports first so the importer below can hand
	// their *types.Package straight back.
	stack = append(stack, importPath)
	for _, f := range files {
		for _, imp := range f.Imports {
			path := quoteImportPath(imp.Path.Value)
			if path == m.Path || strings.HasPrefix(path, m.Path+"/") {
				if _, err := m.ensure(path, stack); err != nil {
					return nil, err
				}
			}
		}
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: moduleImporter{m},
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(importPath, m.Fset, files, info)
	if len(typeErrs) > 0 {
		msgs := make([]string, 0, 3)
		for i, e := range typeErrs {
			if i == 3 {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(typeErrs)-3))
				break
			}
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("detlint: type errors in %s:\n  %s", importPath, strings.Join(msgs, "\n  "))
	}
	pkg := &Package{
		ImportPath: importPath,
		Rel:        relOrEmpty(rel),
		Dir:        dir,
		Name:       name,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	m.pkgs[importPath] = pkg
	return pkg, nil
}

func relOrEmpty(rel string) string {
	if rel == "." {
		return ""
	}
	return filepath.ToSlash(rel)
}

// stdImporter is the process-wide stdlib resolver. The go/importer
// "source" importer parses and type-checks each standard-library package
// from source, which dominates load time; one shared instance means fmt,
// time, os and friends are resolved once per process instead of once per
// Run (the importer caches checked packages internally). Stdlib positions
// land in a private FileSet that is never rendered — findings only ever
// point into module files — so sharing across Runs with distinct module
// FileSets is safe. The mutex serializes concurrent Runs; within one Run
// loading is single-threaded already.
type stdImporter struct{}

var (
	stdImpMu sync.Mutex
	stdImp   types.Importer
)

func (stdImporter) Import(path string) (*types.Package, error) {
	stdImpMu.Lock()
	defer stdImpMu.Unlock()
	if stdImp == nil {
		stdImp = importer.ForCompiler(token.NewFileSet(), "source", nil)
	}
	return stdImp.Import(path)
}

// moduleImporter resolves module-internal imports to already-checked
// packages and delegates everything else to the stdlib source importer.
type moduleImporter struct{ m *Module }

func (mi moduleImporter) Import(path string) (*types.Package, error) {
	m := mi.m
	if path == m.Path || strings.HasPrefix(path, m.Path+"/") {
		pkg, ok := m.pkgs[path]
		if !ok || pkg == nil {
			return nil, fmt.Errorf("detlint: internal import %s not loaded", path)
		}
		return pkg.Types, nil
	}
	return m.std.Import(path)
}
