// Command lint runs the reproduction's determinism linter (detlint)
// over the given packages and prints structured findings.
//
// Usage:
//
//	go run ./cmd/lint ./...          # whole tree (CI gate)
//	go run ./cmd/lint ./internal/dataflow
//	go run ./cmd/lint -rules         # print the rule catalog
//	go run ./cmd/lint -json ./...    # findings as JSON
//
// Exit status is 0 when no finding fires, 1 otherwise. Findings are
// suppressed line-by-line with `//lint:allow <rule> <reason>` escape
// comments; see DESIGN.md "Static analysis" for the rule catalog.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis"
)

// ruleDocs is the one-line catalog -rules prints.
var ruleDocs = map[string]string{
	analysis.RuleWallclock: "time.Now/Since/Until outside the telemetry wall-clock shim",
	analysis.RuleRand:      "math/rand import bypassing the seeded xrand generator",
	analysis.RuleMapOrder:  "map-range order leaking into returned slices or serialized output",
	analysis.RuleGoroutine: "goroutine launch without a join barrier in sim/dataflow/lineage",
	analysis.RuleErrDrop:   "discarded error return on the serde/objstore/lineage hot paths",
	analysis.RuleTestOnly:  "non-test declaration that no reached non-test code references",
}

func main() {
	var (
		jsonOut = flag.Bool("json", false, "emit findings as JSON")
		rules   = flag.Bool("rules", false, "print the rule catalog and exit")
	)
	flag.Parse()

	if *rules {
		for _, r := range analysis.Rules() {
			fmt.Printf("%-10s %s\n", r, ruleDocs[r])
		}
		return
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lint:", err)
		os.Exit(2)
	}
	modPath, err := analysis.ModulePathOf(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lint:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := analysis.ExpandPatterns(root, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lint:", err)
		os.Exit(2)
	}

	cfg := analysis.DefaultConfig(root, modPath)
	findings, err := analysis.LintPackages(cfg, dirs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lint:", err)
		os.Exit(2)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "lint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(rel(root, f))
		}
		fmt.Printf("lint: %d package dirs, %d findings\n", len(dirs), len(findings))
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// rel rewrites a finding's file path relative to the module root for
// stable, clickable output.
func rel(root string, f analysis.Finding) string {
	if r, err := filepath.Rel(root, f.File); err == nil && !filepath.IsAbs(r) {
		f.File = r
	}
	return f.String()
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
