package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
)

// Finding is one count compared between baseline and fresh run: a
// micro's allocs_per_op or a macro's sim_seconds.
type Finding struct {
	Name     string  `json:"name"`
	Kind     string  `json:"kind"` // "micro" or "macro"
	Baseline float64 `json:"baseline"`
	Fresh    float64 `json:"fresh"`
	Moved    bool    `json:"moved,omitempty"`
}

// CompareReport is the gate's verdict.
type CompareReport struct {
	BaselinePath string    `json:"baseline_path,omitempty"`
	Findings     []Finding `json:"findings,omitempty"`
	// Notes are informational, never a failure by themselves: benchmarks
	// present on only one side (renamed or newly added), object counts
	// that fell, a Go version change that left objects uncompared.
	Notes []string `json:"notes,omitempty"`
	Moved int      `json:"moved"`
}

// allocSlack is how far a micro's allocs_per_op may rise before it
// counts: 2 % plus half an object. Across runs of one commit the counts
// that wobble at all (a pool refilled after a collection, a map grown
// one bucket later) stay within two objects in 50,000; a per-row or
// per-batch allocation added to a loop is at least one whole object per
// op on a fast micro and far over 2 % on a slow one.
func allocSlack(baseline float64) float64 { return 0.02*baseline + 0.5 }

// simTolerance is the relative distance a macro's sim_seconds may sit
// from the baseline in either direction: the last-ULP wobble of workers
// folding float work in batch-arrival order, nothing more. A changed
// cost model or schedule moves simulated seconds by parts in a million
// at the very least.
const simTolerance = 1e-9

// Compare diffs the counts of a fresh report against a baseline — the
// two columns that read the same on every host and under any load, so
// a difference is a difference in code. Wall time (ns_per_op, wall_ms)
// is never compared here; `go run ./benchmark -compare` is the ruler
// for that. A micro moves when its allocs_per_op rises by more than
// allocSlack; the runtime's own allocation behaviour changes between Go
// releases, so objects are compared only when both reports name one Go
// version. A macro moves when its sim_seconds differs by more than
// simTolerance.
func Compare(baseline, fresh *Report) *CompareReport {
	out := &CompareReport{}
	sameGo := baseline.GoVersion == fresh.GoVersion
	if !sameGo {
		out.Notes = append(out.Notes, fmt.Sprintf("go_version %q vs %q: allocs_per_op not compared", baseline.GoVersion, fresh.GoVersion))
	}
	was := counts(baseline)
	base := make(map[string]float64, len(was))
	for _, c := range was {
		base[c.key()] = c.value
	}
	seen := make(map[string]bool, len(was))
	for _, c := range counts(fresh) {
		b, ok := base[c.key()]
		if !ok {
			out.Notes = append(out.Notes, "baseline lacks "+c.key())
			continue
		}
		seen[c.key()] = true
		var moved bool
		switch {
		case c.kind == "macro":
			moved = math.Abs(c.value-b) > simTolerance*math.Abs(b)
		case !sameGo:
			continue
		default:
			moved = c.value > b+allocSlack(b)
			if c.value < b-allocSlack(b) {
				out.Notes = append(out.Notes, fmt.Sprintf("micro %s allocs_per_op fell %g -> %g", c.name, b, c.value))
			}
		}
		if moved {
			out.Moved++
		}
		out.Findings = append(out.Findings, Finding{Name: c.name, Kind: c.kind, Baseline: b, Fresh: c.value, Moved: moved})
	}
	for _, c := range was {
		if !seen[c.key()] {
			out.Notes = append(out.Notes, "fresh run lacks "+c.key())
		}
	}
	slices.Sort(out.Notes)
	return out
}

// count is one compared number of a report: a micro's allocs_per_op
// under its name, or a macro's sim_seconds under task/experiment/size.
type count struct {
	kind, name string
	value      float64
}

func (c count) key() string { return c.kind + " " + c.name }

// counts lists a report's compared numbers, micros first, in report
// order.
func counts(r *Report) []count {
	out := make([]count, 0, len(r.Micro)+len(r.Macro))
	for _, m := range r.Micro {
		out = append(out, count{"micro", m.Name, m.AllocsPerOp})
	}
	for _, m := range r.Macro {
		out = append(out, count{"macro", fmt.Sprintf("%s/%s/%d", m.Task, m.Experiment, m.Size), m.SimSeconds})
	}
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
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return "", nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return path, &rep, nil
}
