package analysis_test

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// repoRoot locates the module root from the package directory.
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}
	return root
}

// wantMarkers extracts `// want <rule>` expectations: line -> rules.
func wantMarkers(t *testing.T, path string) map[int][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[int][]string)
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		_, rest, ok := strings.Cut(sc.Text(), "// want ")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			t.Fatalf("%s:%d: empty want marker", path, line)
		}
		want[line] = append(want[line], fields[0])
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestFixtures lints every fixture file and requires findings to match
// its `// want <rule>` markers exactly — each rule has at least one
// firing case and one clean/allowed case in the fixture set.
func TestFixtures(t *testing.T) {
	root := repoRoot(t)
	cfg := analysis.Config{ModuleRoot: root, ModulePath: "repro"}
	fixtures, err := filepath.Glob(filepath.Join("testdata", "src", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) == 0 {
		t.Fatal("no fixtures under testdata/src")
	}
	seenRule := make(map[string]bool)
	for _, fx := range fixtures {
		fx := fx
		t.Run(filepath.Base(fx), func(t *testing.T) {
			want := wantMarkers(t, fx)
			finds, err := analysis.LintFiles(cfg, []string{fx})
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[int][]string)
			for _, f := range finds {
				got[f.Line] = append(got[f.Line], f.Rule)
				seenRule[f.Rule] = true
			}
			for line, rules := range want {
				sort.Strings(rules)
				g := append([]string(nil), got[line]...)
				sort.Strings(g)
				if strings.Join(rules, ",") != strings.Join(g, ",") {
					t.Errorf("line %d: want rules %v, got %v", line, rules, g)
				}
			}
			for line, rules := range got {
				if len(want[line]) == 0 {
					t.Errorf("line %d: unexpected findings %v", line, rules)
				}
			}
		})
	}
	for _, rule := range analysis.Rules() {
		if !seenRule[rule] && rule != analysis.RuleTestOnly {
			t.Errorf("rule %s never fired across the fixtures", rule)
		}
	}
}

// TestTestOnlyFixture lints the module under testdata/src/testonly
// and requires its findings to match the `// want testonly` markers:
// what only tests, a test-support package or the declaration itself
// reach is flagged; what main reaches, a method an interface or the
// standard library may call, and an allowed declaration are not.
// Linting one package alone reports the same findings.
func TestTestOnlyFixture(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src", "testonly"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := analysis.Config{ModuleRoot: root, ModulePath: "fixture"}
	dirs, err := analysis.ExpandPatterns(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]bool)
	var files []string
	for _, dir := range dirs {
		names, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		files = append(files, names...)
	}
	for _, name := range files {
		for line, rules := range wantMarkers(t, name) {
			for _, rule := range rules {
				want[fmt.Sprintf("%s:%d:%s", name, line, rule)] = true
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("no want markers in the testonly fixture")
	}
	check := func(finds []analysis.Finding, only string) {
		t.Helper()
		got := make(map[string]bool)
		for _, f := range finds {
			got[fmt.Sprintf("%s:%d:%s", f.File, f.Line, f.Rule)] = true
		}
		for k := range want {
			if strings.HasPrefix(k, only) && !got[k] {
				t.Errorf("missing finding %s", k)
			}
		}
		for k := range got {
			if !want[k] {
				t.Errorf("unexpected finding %s", k)
			}
		}
	}
	finds, err := analysis.LintPackages(cfg, dirs)
	if err != nil {
		t.Fatal(err)
	}
	check(finds, "")
	lib := filepath.Join(root, "lib")
	finds, err = analysis.LintPackages(cfg, []string{lib})
	if err != nil {
		t.Fatal(err)
	}
	check(finds, lib)
}

// TestRepositoryIsClean is the acceptance gate in test form: the
// determinism linter must report zero findings over the whole module.
func TestRepositoryIsClean(t *testing.T) {
	root := repoRoot(t)
	modPath, err := analysis.ModulePathOf(root)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := analysis.ExpandPatterns(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 20 {
		t.Fatalf("pattern expansion found only %d dirs; expected the whole tree", len(dirs))
	}
	finds, err := analysis.LintPackages(analysis.DefaultConfig(root, modPath), dirs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range finds {
		t.Errorf("%s", f)
	}
}

// TestScopedRules proves path scoping: a goroutine hazard outside the
// configured scope is not reported, while the same package under scope
// is.
func TestScopedRules(t *testing.T) {
	root := repoRoot(t)
	dir := t.TempDir()
	src := `package tmp

func Loose(work func()) {
	go work()
}
`
	if err := os.WriteFile(filepath.Join(dir, "tmp.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out := analysis.Config{ModuleRoot: root, ModulePath: "repro"} // no scopes: rule off
	finds, err := analysis.LintPackages(out, []string{dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range finds {
		if f.Rule == analysis.RuleGoroutine {
			t.Errorf("out-of-scope goroutine finding: %s", f)
		}
	}
	in := out
	in.GoroutineScope = []string{""} // match everything
	finds, err = analysis.LintPackages(in, []string{dir})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range finds {
		if f.Rule == analysis.RuleGoroutine {
			found = true
		}
	}
	if !found {
		t.Error("in-scope goroutine hazard not reported")
	}
}
