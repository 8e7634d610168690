// Package analysis is the project-invariant static analyzer suite behind
// cmd/ecs-vet and the repo-root analysis_test.go. It type-checks every
// package in the module with nothing but the standard library (go/parser,
// go/ast, go/types, go/importer — no x/tools, matching the module's
// zero-dependency rule) and runs a set of analyzers that prove the
// properties the paper's accounting model and the perf work of PRs 3–4
// rely on, instead of merely sampling them with tests:
//
//   - oracleround: comparisons happen only inside model.Session rounds,
//     so Result stats stay truthful.
//   - hotalloc: functions annotated //ecsort:hotpath stay free of the
//     allocation patterns the alloc tests guard dynamically.
//   - shardown: shard-owned state is touched only on its owner
//     goroutine, and sync/atomic fields only through their methods.
//   - ctxflow: contexts thread through entry points instead of being
//     re-rooted with context.Background.
//   - apidoc: every symbol of the committed API surface is documented.
//   - registrycomplete: every exported Algorithm constructor is wired
//     into the registry.
//
// Findings are suppressed, one line at a time, with
// //ecsort:ignore <analyzer> <reason> on (or immediately above) the
// offending line; the reason is mandatory.
package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	// Path is the import path ("ecsort/internal/core").
	Path string
	// Dir is the package directory on disk.
	Dir string
	// Files are the parsed non-test source files, in file-name order.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's expression facts for Files.
	Info *types.Info
}

// Module is a loaded Go module: every non-test package type-checked in
// one shared universe, so type identities compare across packages. It
// implements types.Importer for its own packages and delegates the
// standard library to the compiler's export data (with a from-source
// fallback for toolchains that ship none).
type Module struct {
	// Dir is the module root (the directory holding go.mod).
	Dir string
	// Path is the module path from go.mod.
	Path string
	// Fset positions every file of every package.
	Fset *token.FileSet

	std      types.Importer
	srcOnce  bool
	src      types.Importer
	pkgs     map[string]*Package
	loading  map[string]bool
	order    []string
	typeErrs []error
}

var moduleLineRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// LoadModule parses and type-checks every non-test package under dir,
// which must hold a go.mod. Directories named testdata and hidden
// directories are skipped, mirroring the go tool.
func LoadModule(dir string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	gomod, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: %s is not a module root: %w", abs, err)
	}
	match := moduleLineRE.FindSubmatch(gomod)
	if match == nil {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", abs)
	}
	m := &Module{
		Dir:     abs,
		Path:    string(match[1]),
		Fset:    token.NewFileSet(),
		std:     importer.Default(),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	var dirs []string
	err = filepath.WalkDir(abs, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != abs && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				dirs = append(dirs, p)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	for _, d := range dirs {
		if _, err := m.load(m.importPathOf(d)); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// hasGoFiles reports whether dir directly contains at least one non-test
// Go source file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// importPathOf maps a directory under the module root to its import path.
func (m *Module) importPathOf(dir string) string {
	rel, err := filepath.Rel(m.Dir, dir)
	if err != nil || rel == "." {
		return m.Path
	}
	return m.Path + "/" + filepath.ToSlash(rel)
}

// Packages returns the loaded packages in load order (a topological
// order of the import graph, ties broken by path).
func (m *Module) Packages() []*Package {
	out := make([]*Package, 0, len(m.order))
	for _, p := range m.order {
		out = append(out, m.pkgs[p])
	}
	return out
}

// Lookup returns the loaded package with the given import path, or nil.
func (m *Module) Lookup(path string) *Package { return m.pkgs[path] }

// Import implements types.Importer: module-internal paths load (and
// type-check) from source in this module's universe; everything else is
// standard library, served from compiler export data when available and
// type-checked from GOROOT source otherwise.
func (m *Module) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == m.Path || strings.HasPrefix(path, m.Path+"/") {
		pkg, err := m.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if tp, err := m.std.Import(path); err == nil {
		return tp, nil
	}
	if !m.srcOnce {
		m.srcOnce = true
		m.src = importer.ForCompiler(m.Fset, "source", nil)
	}
	return m.src.Import(path)
}

// load parses and type-checks one module package, memoized.
func (m *Module) load(importPath string) (*Package, error) {
	if pkg, ok := m.pkgs[importPath]; ok {
		return pkg, nil
	}
	if m.loading[importPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
	}
	m.loading[importPath] = true
	defer delete(m.loading, importPath)

	dir := m.Dir
	if importPath != m.Path {
		dir = filepath.Join(m.Dir, filepath.FromSlash(strings.TrimPrefix(importPath, m.Path+"/")))
	}
	pkg, err := m.check(importPath, dir)
	if err != nil {
		return nil, err
	}
	m.pkgs[importPath] = pkg
	m.order = append(m.order, importPath)
	return pkg, nil
}

// check parses dir's non-test files and type-checks them as importPath.
func (m *Module) check(importPath, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(m.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	cfg := &types.Config{Importer: m}
	tpkg, err := cfg.Check(importPath, m.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	return &Package{Path: importPath, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}

// LoadExtra parses and type-checks an out-of-tree directory (analyzer
// test fixtures under testdata/) as one extra package of this module's
// universe, so fixtures may import module packages and the standard
// library. The package is registered under importPath and analyzed like
// any other.
func (m *Module) LoadExtra(dir, importPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	pkg, err := m.check(importPath, abs)
	if err != nil {
		return nil, err
	}
	m.pkgs[importPath] = pkg
	m.order = append(m.order, importPath)
	return pkg, nil
}
