package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
)

// Env is the benchmark host fingerprint stamped into every report.
// Wall-clock numbers are only comparable between runs on the same
// machine configuration, so the regression detector refuses to compare
// reports whose fingerprints differ instead of reporting differences
// in hardware as differences in code.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// GOGC is the GC target from the environment; empty means the
	// default (100). GC pacing shifts every allocation-heavy micro.
	GOGC string `json:"gogc,omitempty"`
}

// CurrentEnv fingerprints the running process.
func CurrentEnv() Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOGC:       os.Getenv("GOGC"),
	}
}

// mismatches lists the fields on which two fingerprints disagree, in a
// fixed order. Empty means comparable.
func (e Env) mismatches(other Env) []string {
	var out []string
	add := func(field, a, b string) {
		if a != b {
			out = append(out, fmt.Sprintf("%s: %q vs %q", field, a, b))
		}
	}
	add("go_version", e.GoVersion, other.GoVersion)
	add("goos", e.GOOS, other.GOOS)
	add("goarch", e.GOARCH, other.GOARCH)
	add("gomaxprocs", strconv.Itoa(e.GOMAXPROCS), strconv.Itoa(other.GOMAXPROCS))
	add("num_cpu", strconv.Itoa(e.NumCPU), strconv.Itoa(other.NumCPU))
	add("gogc", e.GOGC, other.GOGC)
	return out
}

// Finding is one benchmark compared between baseline and fresh run.
type Finding struct {
	Name      string  `json:"name"`
	Kind      string  `json:"kind"` // "micro" or "macro"
	Baseline  float64 `json:"baseline"`
	Fresh     float64 `json:"fresh"`
	Ratio     float64 `json:"ratio"` // fresh / baseline
	Threshold float64 `json:"threshold"`
	Regressed bool    `json:"regressed,omitempty"`
	Improved  bool    `json:"improved,omitempty"`
}

// CompareReport is the regression detector's verdict.
type CompareReport struct {
	BaselinePath string `json:"baseline_path,omitempty"`
	// EnvMismatch lists fingerprint differences; when non-empty the
	// comparison was refused and Findings is empty.
	EnvMismatch []string  `json:"env_mismatch,omitempty"`
	Findings    []Finding `json:"findings,omitempty"`
	// Missing names benchmarks present on only one side (renamed or
	// newly added) — informational, never a regression by itself.
	Missing     []string `json:"missing,omitempty"`
	Regressions int      `json:"regressions"`
}

// microThreshold is the relative slowdown tolerated per micro before
// it counts as a regression, tiered by magnitude: the faster the
// operation, the larger the share of its cost that is scheduler and
// cache noise on a busy host. The tiers come from the observed spread
// of the BENCH_1–6 series on an otherwise idle machine.
func microThreshold(baselineNS float64) float64 {
	switch {
	case baselineNS < 100:
		return 0.60
	case baselineNS < 1000:
		return 0.45
	default:
		return 0.30
	}
}

// macroThreshold is the tolerated relative slowdown for end-to-end
// macro runs; min-of-7 interleaved reps makes these steadier than any
// single micro window.
const macroThreshold = 0.35

// Compare diffs a fresh report against a baseline. It refuses (with
// EnvMismatch set) when the reports come from different machine
// fingerprints, or the baseline predates the Env header and records
// none. A benchmark regresses when fresh > baseline*(1+thr);
// it improves (informationally) when fresh < baseline/(1+thr).
func Compare(baseline, fresh *Report) *CompareReport {
	out := &CompareReport{}
	if baseline.Env == (Env{}) {
		out.EnvMismatch = []string{"baseline records no env block"}
		return out
	}
	if mm := baseline.Env.mismatches(fresh.Env); len(mm) > 0 {
		out.EnvMismatch = mm
		return out
	}

	classify := func(name, kind string, base, got, thr float64) {
		f := Finding{
			Name: name, Kind: kind,
			Baseline: base, Fresh: got, Threshold: thr,
		}
		if base > 0 {
			f.Ratio = got / base
			f.Regressed = f.Ratio > 1+thr
			f.Improved = f.Ratio < 1/(1+thr)
		}
		if f.Regressed {
			out.Regressions++
		}
		out.Findings = append(out.Findings, f)
	}

	baseMicro := make(map[string]Micro, len(baseline.Micro))
	for _, m := range baseline.Micro {
		baseMicro[m.Name] = m
	}
	seen := make(map[string]bool)
	for _, m := range fresh.Micro {
		b, ok := baseMicro[m.Name]
		if !ok {
			out.Missing = append(out.Missing, "baseline lacks micro "+m.Name)
			continue
		}
		seen[m.Name] = true
		classify(m.Name, "micro", b.NsPerOp, m.NsPerOp, microThreshold(b.NsPerOp))
	}
	for _, m := range baseline.Micro {
		if !seen[m.Name] {
			out.Missing = append(out.Missing, "fresh run lacks micro "+m.Name)
		}
	}

	macroKey := func(m Macro) string {
		return fmt.Sprintf("%s/%s/%d", m.Task, m.Experiment, m.Size)
	}
	baseMacro := make(map[string]Macro, len(baseline.Macro))
	for _, m := range baseline.Macro {
		baseMacro[macroKey(m)] = m
	}
	seenMacro := make(map[string]bool)
	for _, m := range fresh.Macro {
		k := macroKey(m)
		b, ok := baseMacro[k]
		if !ok {
			out.Missing = append(out.Missing, "baseline lacks macro "+k)
			continue
		}
		seenMacro[k] = true
		classify(k, "macro", b.WallMS, m.WallMS, macroThreshold)
	}
	for _, m := range baseline.Macro {
		if k := macroKey(m); !seenMacro[k] {
			out.Missing = append(out.Missing, "fresh run lacks macro "+k)
		}
	}
	sort.Strings(out.Missing)
	return out
}

var benchFileRe = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// LatestBaseline finds the highest-numbered BENCH_<n>.json in dir and
// loads it. It returns os.ErrNotExist when the directory holds no
// baseline.
func LatestBaseline(dir string) (string, *Report, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", nil, err
	}
	best, bestN := "", -1
	for _, e := range entries {
		m := benchFileRe.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err != nil {
			continue
		}
		if n > bestN {
			bestN, best = n, e.Name()
		}
	}
	if best == "" {
		return "", nil, fmt.Errorf("bench: no BENCH_*.json baseline in %s: %w", dir, os.ErrNotExist)
	}
	path := filepath.Join(dir, best)
	rep, err := LoadReport(path)
	if err != nil {
		return "", nil, err
	}
	return path, rep, nil
}

// LoadReport reads a bench report JSON file.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return &rep, nil
}
