// Package analysis is the reproduction's stdlib-only static-analysis
// suite. It hosts detlint, a determinism linter built on go/parser,
// go/ast and go/types that flags the nondeterminism hazards this
// repository's bit-equal golden tests depend on never creeping in:
// wall-clock reads outside the sanctioned telemetry shim, math/rand
// imports bypassing the seeded xrand generator, map-range iteration
// leaking Go's randomized map order into returned slices or serialized
// output, goroutine launches in the deterministic engine packages that
// do not join through a barrier, discarded error returns on the
// serde/objstore/lineage hot paths, float accumulation inside map-range
// loops (rounding makes the sum order-dependent), and time.Sleep used
// as cross-goroutine synchronization. One more rule, testonly, keeps
// the product's surface what the product calls: it flags a non-test
// declaration that no reached non-test code in the module references.
//
// The linter is deliberately self-contained: it resolves same-module
// imports from source and stubs everything else, so it needs neither a
// build cache nor third-party tooling. `go run ./cmd/lint ./...` runs
// it over the tree; findings are suppressed line-by-line with escape
// comments of the form
//
//	//lint:allow <rule> <reason>
//
// placed on (or immediately above) the offending line. The plan-time
// companion pass — validating workflow DAGs before execution — lives
// in dataflow.Validate; see DESIGN.md "Static analysis".
package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// Rule identifiers. The short names double as the escape-comment
// grammar's rule tokens (//lint:allow wallclock ...).
const (
	// RuleWallclock flags time.Now/time.Since/time.Until calls outside
	// the telemetry wall-clock shim.
	RuleWallclock = "wallclock"
	// RuleRand flags math/rand imports; deterministic code must draw
	// randomness from the seeded xrand generator.
	RuleRand = "rand"
	// RuleMapOrder flags map-range loops whose iteration order leaks
	// into a returned slice or serialized output without an intervening
	// sort.
	RuleMapOrder = "maporder"
	// RuleGoroutine flags goroutine launches in the deterministic
	// engine packages whose enclosing function wires no join barrier.
	RuleGoroutine = "goroutine"
	// RuleErrDrop flags discarded error returns on the hot paths that
	// feed digests and lineage fingerprints.
	RuleErrDrop = "errdrop"
	// RuleFloatOrder flags float accumulation inside a range over a map:
	// float addition does not commute under rounding, so the randomized
	// iteration order leaks into the final ULPs.
	RuleFloatOrder = "floatorder"
	// RuleSleepSync flags time.Sleep in functions that launch
	// goroutines — sleep-based synchronization races the scheduler.
	RuleSleepSync = "sleepsync"
	// RuleTestOnly flags package-level declarations that no non-test
	// code in the module references.
	RuleTestOnly = "testonly"
)

// Rules lists every lint rule ID, sorted, for -rules output and docs.
func Rules() []string {
	return []string{RuleErrDrop, RuleFloatOrder, RuleGoroutine, RuleMapOrder, RuleRand, RuleSleepSync, RuleTestOnly, RuleWallclock}
}

// Finding is one structured lint diagnostic.
type Finding struct {
	// File is the path as given to the loader (repo-relative when
	// invoked through cmd/lint).
	File string
	// Line and Col locate the offending token, 1-based.
	Line int
	Col  int
	// Rule is the rule ID (see the Rule* constants).
	Rule string
	// Msg explains the hazard.
	Msg string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Rule, f.Msg)
}

// Config scopes the linter. The zero value lints nothing; use
// DefaultConfig for the repository's policy.
type Config struct {
	// ModuleRoot is the directory containing go.mod; import paths under
	// ModulePath resolve to source below it.
	ModuleRoot string
	// ModulePath is the module's import path (from go.mod).
	ModulePath string
	// GoroutineScope lists package-directory prefixes (relative to
	// ModuleRoot, slash-separated) where RuleGoroutine applies. An
	// empty-string element matches every package.
	GoroutineScope []string
	// ErrDropScope is the same for RuleErrDrop.
	ErrDropScope []string
}

// DefaultConfig returns the repository policy: wallclock, rand and
// maporder everywhere; goroutine in the deterministic engine packages;
// errdrop on the serde/objstore/lineage hot paths.
func DefaultConfig(moduleRoot, modulePath string) Config {
	return Config{
		ModuleRoot:     moduleRoot,
		ModulePath:     modulePath,
		GoroutineScope: []string{"internal/sim", "internal/dataflow", "internal/lineage", "internal/relation"},
		ErrDropScope:   []string{"internal/relation", "internal/objstore", "internal/lineage"},
	}
}

// inScope reports whether the package directory (relative,
// slash-separated) falls under any of the prefixes.
func inScope(rel string, prefixes []string) bool {
	for _, p := range prefixes {
		if p == "" || rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// sortFindings orders findings by file, line, column, rule — the
// deterministic output order cmd/lint prints.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
}
