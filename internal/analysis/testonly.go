package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// stdlibMethods are the method names the standard library calls
// through interfaces of its own. The lenient importer stubs those
// packages, and types.Implements across two checks of one package
// fails on type identity, so a method is matched to them by name.
var stdlibMethods = []string{"Error", "String", "Unwrap", "Len", "Less", "Swap", "Push", "Pop",
	"ServeHTTP", "Import", "MarshalJSON", "UnmarshalJSON"}

// declKey names a package-level object across separate type checks of
// its package: "path.Name", or "path.Recv.Name" for a method. It is ""
// for anything else (locals, fields, blanks, methods of interfaces).
func declKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		t := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && !types.IsInterface(named) {
			return obj.Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name()
		}
		return ""
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// declIdents lists the names a top-level declaration defines.
func declIdents(decl ast.Decl) []*ast.Ident {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		return []*ast.Ident{d.Name}
	case *ast.GenDecl:
		var ids []*ast.Ident
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				ids = append(ids, s.Name)
			case *ast.ValueSpec:
				ids = append(ids, s.Names...)
			}
		}
		return ids
	}
	return nil // a declaration that did not parse
}

// lintTestOnly applies RuleTestOnly to the linted packages. Every
// non-test package under the module root is one reference graph,
// whichever directories were given, so linting part of the tree cannot
// report a declaration another part calls. The roots are main, init,
// blank declarations and declarations that carry an escape comment; a
// declaration is reached when a reached one references it from outside
// the reached one's own declaration, a method counting as part of its
// receiver type's. A method of a reached type is also reached when code
// the graph cannot see may call it by name: through an interface in
// the module, the standard library, or a selection whose operand's
// type did not resolve. Packages named "…test" are test support,
// neither reported nor counted. The benchmark directory is the ruler a
// change is measured with against its parent, so it changes only with
// the benchmark: its calls count, but its declarations are not
// reported.
func lintTestOnly(cfg Config, imp *moduleImporter, linted []*pkgSrc) ([]Finding, error) {
	report := make(map[string]bool, len(linted))
	for _, pkg := range linted {
		report[pkg.rel] = pkg.rel != "benchmark"
	}
	dirs, err := ExpandPatterns(cfg.ModuleRoot, []string{"./..."})
	if err != nil {
		return nil, err
	}
	refs := make(map[string][]string)    // declaration -> what it references
	methods := make(map[string][]string) // type -> its methods
	callable := make(map[string]bool)    // method names unseen code may call
	for _, name := range stdlibMethods {
		callable[name] = true
	}
	var queue []string
	type def struct {
		key string
		at  token.Position
	}
	var defs []def // the linted packages' declarations
	for _, dir := range dirs {
		pkg, err := loadPackage(cfg, imp, dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil || strings.HasSuffix(pkg.files[0].Name.Name, "test") {
			continue
		}
		for _, f := range pkg.files {
			allows := allowsOf(pkg.fset, f)
			for _, decl := range f.Decls {
				var own []string
				root := false
				for _, id := range declIdents(decl) {
					k := declKey(pkg.info.Defs[id])
					root = root || id.Name == "_" || id.Name == "init" || id.Name == "main" ||
						allows.allowed(pkg.fset, id.Pos(), RuleTestOnly)
					if k == "" {
						continue
					}
					own = append(own, k)
					if report[pkg.rel] {
						defs = append(defs, def{k, pkg.fset.Position(id.Pos())})
					}
				}
				defined := len(own)
				if d, ok := decl.(*ast.FuncDecl); ok && d.Recv != nil && defined == 1 {
					typ := own[0][:strings.LastIndex(own[0], ".")]
					methods[typ] = append(methods[typ], own[0])
					own = append(own, typ)
				}
				var uses []string
				ast.Inspect(decl, func(x ast.Node) bool {
					switch x := x.(type) {
					case *ast.Ident:
						if k := declKey(pkg.info.Uses[x]); k != "" && !slices.Contains(own, k) {
							uses = append(uses, k)
						}
					case *ast.SelectorExpr:
						id, _ := x.X.(*ast.Ident)
						if _, qualified := pkg.info.Uses[id].(*types.PkgName); pkg.info.Uses[x.Sel] == nil && !qualified {
							callable[x.Sel.Name] = true
						}
					case *ast.InterfaceType:
						for _, m := range x.Methods.List {
							for _, id := range m.Names {
								callable[id.Name] = true
							}
						}
					}
					return true
				})
				for _, k := range own[:defined] {
					refs[k] = uses
				}
				if root {
					queue = append(queue, own[:defined]...)
					queue = append(queue, uses...)
				}
			}
		}
	}
	reached := make(map[string]bool)
	for len(queue) > 0 {
		k := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if reached[k] {
			continue
		}
		reached[k] = true
		queue = append(queue, refs[k]...)
		for _, m := range methods[k] {
			if callable[m[strings.LastIndex(m, ".")+1:]] {
				queue = append(queue, m)
			}
		}
	}
	var out []Finding
	for _, d := range defs {
		if !reached[d.key] {
			out = append(out, Finding{File: d.at.Filename, Line: d.at.Line, Col: d.at.Column, Rule: RuleTestOnly,
				Msg: d.key[strings.LastIndex(d.key, ".")+1:] + " is reached by no non-test code in the module; delete it, move it into a _test.go file, or say why it stays with an escape comment"})
		}
	}
	return out, nil
}
