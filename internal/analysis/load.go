package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// pkgSrc is one parsed, partially type-checked package: the unit the
// lint rules walk.
type pkgSrc struct {
	// rel is the package directory relative to the module root,
	// slash-separated ("" when outside the module, e.g. fixtures).
	rel   string
	fset  *token.FileSet
	files []*ast.File
	info  *types.Info
}

// moduleImporter resolves same-module imports from source (signatures
// only) and stubs every other import with an empty package, so the
// linter never needs a build cache. Type errors are ignored: partial
// type information is enough for the rules, which all degrade safely
// when an expression's type is unknown.
type moduleImporter struct {
	cfg     Config
	fset    *token.FileSet
	cache   map[string]*types.Package
	loading map[string]bool
}

func newModuleImporter(cfg Config) *moduleImporter {
	return &moduleImporter{
		cfg:     cfg,
		fset:    token.NewFileSet(),
		cache:   make(map[string]*types.Package),
		loading: make(map[string]bool),
	}
}

// stub returns an empty, complete package for an unresolvable path.
func stub(path string) *types.Package {
	name := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		name = path[i+1:]
	}
	p := types.NewPackage(path, name)
	p.MarkComplete()
	return p
}

// Import implements types.Importer.
func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.cache[path]; ok {
		return p, nil
	}
	prefix := m.cfg.ModulePath + "/"
	if m.cfg.ModulePath == "" || !strings.HasPrefix(path, prefix) || m.loading[path] {
		p := stub(path)
		m.cache[path] = p
		return p, nil
	}
	m.loading[path] = true
	defer delete(m.loading, path)

	dir := filepath.Join(m.cfg.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(path, prefix)))
	files, _, err := parseGoDir(m.fset, dir)
	if err != nil || len(files) == 0 {
		p := stub(path)
		m.cache[path] = p
		return p, nil
	}
	conf := types.Config{
		Importer:         m,
		Error:            func(error) {},
		IgnoreFuncBodies: true,
		FakeImportC:      true,
	}
	p, _ := conf.Check(path, m.fset, files, nil)
	if p == nil {
		p = stub(path)
	}
	m.cache[path] = p
	return p, nil
}

// parseGoDir parses every non-test .go file in dir (sorted, so results
// are deterministic) with comments attached. The returned names are the
// paths handed to the parser, which the findings report.
func parseGoDir(fset *token.FileSet, dir string) ([]*ast.File, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, filepath.Join(dir, n))
	}
	sort.Strings(names)
	return parseGoFiles(fset, names)
}

// parseGoFiles parses the given files with comments attached.
func parseGoFiles(fset *token.FileSet, names []string) ([]*ast.File, []string, error) {
	var files []*ast.File
	var parsed []string
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
		parsed = append(parsed, name)
	}
	return files, parsed, nil
}

// checkPkg type-checks one package's files leniently and returns the
// collected (partial) type info.
func checkPkg(imp *moduleImporter, fset *token.FileSet, path string, files []*ast.File) *types.Info {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer:    imp,
		Error:       func(error) {},
		FakeImportC: true,
	}
	// The returned package is irrelevant here; only info matters, and
	// Check populates it even when type errors were ignored.
	conf.Check(path, fset, files, info) //lint:allow errdrop partial type info is expected; errors are collected by the Error hook
	return info
}

// loadPackage parses and leniently type-checks one directory.
func loadPackage(cfg Config, imp *moduleImporter, dir string) (*pkgSrc, error) {
	fset := token.NewFileSet()
	files, _, err := parseGoDir(fset, dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, nil
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rootAbs, err := filepath.Abs(cfg.ModuleRoot)
	if err != nil {
		return nil, err
	}
	rel := ""
	if r, err := filepath.Rel(rootAbs, abs); err == nil && !strings.HasPrefix(r, "..") {
		rel = filepath.ToSlash(r)
		if rel == "." {
			rel = ""
		}
	}
	path := cfg.ModulePath
	if rel != "" {
		path = cfg.ModulePath + "/" + rel
	}
	return &pkgSrc{
		rel:   rel,
		fset:  fset,
		files: files,
		info:  checkPkg(imp, fset, path, files),
	}, nil
}

// LintPackages lints the packages in the given directories and returns
// findings sorted by position. Directories without non-test Go files
// are skipped.
func LintPackages(cfg Config, dirs []string) ([]Finding, error) {
	imp := newModuleImporter(cfg)
	var out []Finding
	var linted []*pkgSrc
	for _, dir := range dirs {
		pkg, err := loadPackage(cfg, imp, dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue
		}
		linted = append(linted, pkg)
		out = append(out, lintPkg(cfg, pkg)...)
	}
	finds, err := lintTestOnly(cfg, imp, linted)
	if err != nil {
		return nil, err
	}
	out = append(out, finds...)
	sortFindings(out)
	return out, nil
}

// ExpandPatterns resolves cmd/lint's package arguments: a literal
// directory, or a Go-style `dir/...` wildcard that walks for package
// directories, skipping testdata, hidden directories and vendor.
func ExpandPatterns(root string, patterns []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, p := range patterns {
		base, recursive := p, false
		if p == "..." {
			base, recursive = ".", true
		} else if strings.HasSuffix(p, "/...") {
			base, recursive = strings.TrimSuffix(p, "/..."), true
		}
		if !filepath.IsAbs(base) {
			base = filepath.Join(root, base)
		}
		if !recursive {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// ModulePathOf reads the module path from root/go.mod.
func ModulePathOf(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s/go.mod", root)
}
