package analysis

import "go/token"

// LintFiles lints the given files as one package, with every
// per-package rule in scope regardless of path — the entry point the
// fixture tests use. RuleTestOnly needs the module, so only
// LintPackages applies it.
func LintFiles(cfg Config, names []string) ([]Finding, error) {
	fset := token.NewFileSet()
	files, _, err := parseGoFiles(fset, names)
	if err != nil {
		return nil, err
	}
	imp := newModuleImporter(cfg)
	pkg := &pkgSrc{
		rel:   "",
		fset:  fset,
		files: files,
		info:  checkPkg(imp, fset, "fixture", files),
	}
	all := Config{
		ModuleRoot:     cfg.ModuleRoot,
		ModulePath:     cfg.ModulePath,
		GoroutineScope: []string{""},
		ErrDropScope:   []string{""},
	}
	out := lintPkg(all, pkg)
	sortFindings(out)
	return out, nil
}
