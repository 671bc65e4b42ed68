package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lintPkg applies every in-scope rule to one package.
func lintPkg(cfg Config, pkg *pkgSrc) []Finding {
	var out []Finding
	for _, f := range pkg.files {
		fl := &fileLinter{
			cfg:    cfg,
			pkg:    pkg,
			file:   f,
			allows: allowsOf(pkg.fset, f),
		}
		fl.run()
		out = append(out, fl.finds...)
	}
	return out
}

// fileLinter holds per-file lint state.
type fileLinter struct {
	cfg    Config
	pkg    *pkgSrc
	file   *ast.File
	allows allowSet
	finds  []Finding

	// timeNames are the local names binding the "time" import.
	timeNames map[string]bool
}

// report records a finding unless an escape comment suppresses it.
func (fl *fileLinter) report(pos token.Pos, rule, format string, args ...any) {
	if fl.allows.allowed(fl.pkg.fset, pos, rule) {
		return
	}
	p := fl.pkg.fset.Position(pos)
	fl.finds = append(fl.finds, Finding{
		File: p.Filename, Line: p.Line, Col: p.Column,
		Rule: rule, Msg: fmt.Sprintf(format, args...),
	})
}

func (fl *fileLinter) run() {
	fl.scanImports()
	fl.wallclockCalls()
	goroutineInScope := inScope(fl.pkg.rel, fl.cfg.GoroutineScope)
	errDropInScope := inScope(fl.pkg.rel, fl.cfg.ErrDropScope)
	for _, decl := range fl.file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		fl.mapOrder(fn)
		fl.floatOrder(fn)
		fl.sleepSync(fn)
		if goroutineInScope {
			fl.goroutines(fn)
		}
		if errDropInScope {
			fl.errDrops(fn)
		}
	}
}

// scanImports records the names binding "time" and flags math/rand.
func (fl *fileLinter) scanImports() {
	fl.timeNames = make(map[string]bool)
	for _, spec := range fl.file.Imports {
		path := strings.Trim(spec.Path.Value, `"`)
		name := path
		if i := strings.LastIndex(path, "/"); i >= 0 {
			name = path[i+1:]
		}
		if spec.Name != nil {
			name = spec.Name.Name
		}
		switch path {
		case "time":
			if name != "_" {
				fl.timeNames[name] = true
			}
		case "math/rand", "math/rand/v2":
			fl.report(spec.Pos(), RuleRand,
				"import of %s bypasses the seeded xrand generator; deterministic code must derive randomness from a run seed", path)
		}
	}
}

// wallclockCalls flags time.Now/Since/Until reads outside the shim.
func (fl *fileLinter) wallclockCalls() {
	if len(fl.timeNames) == 0 {
		return
	}
	ast.Inspect(fl.file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || !fl.timeNames[id.Name] {
			return true
		}
		switch sel.Sel.Name {
		case "Now", "Since", "Until":
			fl.report(call.Pos(), RuleWallclock,
				"call to time.%s outside the telemetry wall-clock shim; route wall reads through telemetry.WallClock/WallSince so determinism-sensitive code cannot observe the host clock", sel.Sel.Name)
		}
		return true
	})
}

// serializeSink reports whether a call writes to an output/encoder —
// the sinks whose byte order must not depend on map iteration.
func serializeSink(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	if id, ok := sel.X.(*ast.Ident); ok && id.Name == "fmt" {
		if strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Print") {
			return "fmt." + name, true
		}
		return "", false
	}
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Encode":
		return types.ExprString(sel), true
	}
	return "", false
}

// mapOrder flags map-range loops whose iteration order escapes into a
// returned slice (without a later sort touching it) or directly into
// serialized output.
func (fl *fileLinter) mapOrder(fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok || !fl.isMapExpr(rs.X) {
			return true
		}
		fl.checkMapRange(fn, rs)
		return true
	})
}

// isMapExpr reports whether the (partially resolved) type of e is a
// map.
func (fl *fileLinter) isMapExpr(e ast.Expr) bool {
	t := fl.pkg.info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkMapRange analyzes one map-range statement.
func (fl *fileLinter) checkMapRange(fn *ast.FuncDecl, rs *ast.RangeStmt) {
	// Accumulators: names appended to inside the loop body.
	accs := make(map[string]token.Pos)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.CallExpr:
			if sink, ok := serializeSink(s); ok {
				fl.report(s.Pos(), RuleMapOrder,
					"map iteration order reaches serialized output via %s; iterate sorted keys instead", sink)
			}
		case *ast.AssignStmt:
			for i, rhs := range s.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || i >= len(s.Lhs) {
					continue
				}
				if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
					continue
				}
				dst, ok := s.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				if len(call.Args) > 0 {
					if src, ok := call.Args[0].(*ast.Ident); !ok || src.Name != dst.Name {
						continue
					}
				}
				accs[dst.Name] = s.Pos()
			}
		}
		return true
	})
	if len(accs) == 0 {
		return
	}
	for name, pos := range accs {
		if !fl.fnReturns(fn, name) {
			continue
		}
		if fl.sortedAfter(fn, name, rs.End()) {
			continue
		}
		fl.report(pos, RuleMapOrder,
			"iteration over map %s flows into returned slice %q with no intervening sort; the result order changes run to run", types.ExprString(rs.X), name)
	}
}

// fnReturns reports whether name is a named result of fn or is
// mentioned in any of fn's return statements.
func (fl *fileLinter) fnReturns(fn *ast.FuncDecl, name string) bool {
	if fn.Type.Results != nil {
		for _, f := range fn.Type.Results.List {
			for _, id := range f.Names {
				if id.Name == name {
					return true
				}
			}
		}
	}
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			ast.Inspect(res, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && id.Name == name {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// sortedAfter reports whether a sorting call mentioning name appears
// after pos within fn — sort.X(name, ...), slices.Sort(name),
// slices.SortFunc(name, ...), slices.SortStableFunc(name, ...),
// name.SortBy(...), or a helper whose name contains "sort".
func (fl *fileLinter) sortedAfter(fn *ast.FuncDecl, name string, pos token.Pos) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= pos || found {
			return !found
		}
		sortingCallee := false
		mentions := false
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			sortingCallee = strings.Contains(strings.ToLower(fun.Name), "sort")
		case *ast.SelectorExpr:
			if id, ok := fun.X.(*ast.Ident); ok {
				if id.Name == "sort" || id.Name == "slices" && slicesSorts[fun.Sel.Name] {
					sortingCallee = true
				}
				if id.Name == name && strings.Contains(strings.ToLower(fun.Sel.Name), "sort") {
					sortingCallee, mentions = true, true
				}
			}
		}
		if !sortingCallee {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && id.Name == name {
					mentions = true
				}
				return !mentions
			})
		}
		if mentions {
			found = true
		}
		return !found
	})
	return found
}

// slicesSorts names the functions of package slices that sort their
// first argument.
var slicesSorts = map[string]bool{"Sort": true, "SortFunc": true, "SortStableFunc": true}

// isFloatExpr reports whether the (partially resolved) type of e is a
// floating-point type.
func (fl *fileLinter) isFloatExpr(e ast.Expr) bool {
	t := fl.pkg.info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// floatOrder flags float accumulation inside a range over a map.
// Float addition does not commute under rounding — (a+b)+c and
// (a+c)+b can differ in the last ULPs — so a sum built in Go's
// randomized map order changes bit pattern run to run even though the
// "same" values were added. Integer accumulation is exact and passes;
// the deterministic idiom is to sort the keys first.
func (fl *fileLinter) floatOrder(fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok || !fl.isMapExpr(rs.X) {
			return true
		}
		key := ""
		if id, ok := rs.Key.(*ast.Ident); ok && id.Name != "_" {
			key = id.Name
		}
		ast.Inspect(rs.Body, func(m ast.Node) bool {
			as, ok := m.(*ast.AssignStmt)
			if !ok {
				return true
			}
			switch as.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				for _, lhs := range as.Lhs {
					// m[k] op= v with k the range key updates a distinct
					// slot each iteration; such per-key updates commute
					// across iterations, only cross-key folds do not.
					if ix, ok := lhs.(*ast.IndexExpr); ok && key != "" {
						if id, ok := ix.Index.(*ast.Ident); ok && id.Name == key {
							continue
						}
					}
					if fl.isFloatExpr(lhs) {
						fl.report(as.Pos(), RuleFloatOrder,
							"float accumulation into %s inside range over map %s; rounding makes the sum order-dependent — iterate sorted keys (or accumulate exactly)", types.ExprString(lhs), types.ExprString(rs.X))
					}
				}
			case token.ASSIGN:
				// The spelled-out form: x = x + v (and -, *, /).
				for i, lhs := range as.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || i >= len(as.Rhs) || !fl.isFloatExpr(lhs) {
						continue
					}
					bin, ok := as.Rhs[i].(*ast.BinaryExpr)
					if !ok {
						continue
					}
					switch bin.Op {
					case token.ADD, token.SUB, token.MUL, token.QUO:
					default:
						continue
					}
					mentions := false
					ast.Inspect(bin, func(e ast.Node) bool {
						if ref, ok := e.(*ast.Ident); ok && ref.Name == id.Name {
							mentions = true
						}
						return !mentions
					})
					if mentions {
						fl.report(as.Pos(), RuleFloatOrder,
							"float accumulation into %s inside range over map %s; rounding makes the sum order-dependent — iterate sorted keys (or accumulate exactly)", id.Name, types.ExprString(rs.X))
					}
				}
			}
			return true
		})
		return true
	})
}

// sleepSync flags time.Sleep calls in functions that also launch
// goroutines. Sleeping "long enough" for a goroutine to finish is a
// race with the scheduler, not synchronization: the sleep either
// wastes time or loses under load. Sleep as pacing (backoff loops,
// rate limiting) in goroutine-free functions passes.
func (fl *fileLinter) sleepSync(fn *ast.FuncDecl) {
	if len(fl.timeNames) == 0 {
		return
	}
	hasGo := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			hasGo = true
		}
		return !hasGo
	})
	if !hasGo {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Sleep" {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && fl.timeNames[id.Name] {
			fl.report(call.Pos(), RuleSleepSync,
				"time.Sleep in %s, which launches goroutines — sleep-based synchronization races the scheduler; join through a WaitGroup, channel or done signal instead", fn.Name.Name)
		}
		return true
	})
}

// goroutines flags `go` statements in functions that wire no join
// barrier (no WaitGroup-style .Wait() call and no close of a
// completion channel anywhere in the function, nested closures
// included). The dataflow executor's launch sites pass because the
// same function closes the execution's done channel after the
// WaitGroup barrier.
func (fl *fileLinter) goroutines(fn *ast.FuncDecl) {
	hasBarrier := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
			hasBarrier = true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "close" {
			hasBarrier = true
		}
		return !hasBarrier
	})
	if hasBarrier {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			fl.report(g.Pos(), RuleGoroutine,
				"goroutine launched in a deterministic engine package with no join barrier in %s (no WaitGroup.Wait or close of a done channel); unjoined goroutines race the schedule", fn.Name.Name)
		}
		return true
	})
}

// errDrops flags discarded error returns: expression statements whose
// call result includes an error, and assignments of an error result to
// the blank identifier. Deferred calls are exempt (the deferred-Close
// idiom). Detection is type-driven and degrades safely: calls whose
// result type did not resolve are skipped.
func (fl *fileLinter) errDrops(fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok && fl.returnsError(call) >= 0 {
				fl.report(s.Pos(), RuleErrDrop,
					"error result of %s is discarded on a hot path; handle it or acknowledge with an escape comment", calleeString(call))
			}
		case *ast.AssignStmt:
			if len(s.Rhs) != 1 {
				return true
			}
			call, ok := s.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			errPos := fl.returnsError(call)
			if errPos < 0 {
				return true
			}
			// Single-value form: _ = f(); tuple form: x, _ := f().
			if len(s.Lhs) == 1 && errPos == 0 || errPos < len(s.Lhs) {
				if id, ok := s.Lhs[min(errPos, len(s.Lhs)-1)].(*ast.Ident); ok && id.Name == "_" {
					fl.report(s.Pos(), RuleErrDrop,
						"error result of %s is assigned to _ on a hot path; handle it or acknowledge with an escape comment", calleeString(call))
				}
			}
		}
		return true
	})
}

// returnsError returns the index of the error in the call's result
// tuple, or -1 when the call returns no error (or its type is
// unknown).
func (fl *fileLinter) returnsError(call *ast.CallExpr) int {
	t := fl.pkg.info.TypeOf(call)
	if t == nil {
		return -1
	}
	errType := types.Universe.Lookup("error").Type()
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if types.Identical(tup.At(i).Type(), errType) {
				return i
			}
		}
		return -1
	}
	if types.Identical(t, errType) {
		return 0
	}
	return -1
}

// calleeString renders a call's function expression for messages.
func calleeString(call *ast.CallExpr) string {
	return types.ExprString(call.Fun)
}
