package bench

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleReport() *Report {
	return &Report{
		GoVersion:  "go1.22.0",
		GOMAXPROCS: 4,
		Micro: []Micro{
			{Name: "free_op", NsPerOp: 50, AllocsPerOp: 0.0049},
			{Name: "small_op", NsPerOp: 500, AllocsPerOp: 3},
			{Name: "lower_op", NsPerOp: 50000, AllocsPerOp: 206},
		},
		Macro: []Macro{
			{Task: "dice", Experiment: "fig13a", Size: 50, WallMS: 120, SimSeconds: 29.784297182799826},
		},
	}
}

func movedNames(cmp *CompareReport) string {
	var names []string
	for _, f := range cmp.Findings {
		if f.Moved {
			names = append(names, f.Name)
		}
	}
	return strings.Join(names, " ")
}

func TestCompareUnchangedBaselinePasses(t *testing.T) {
	cmp := Compare(sampleReport(), sampleReport())
	if cmp.Moved != 0 || len(cmp.Findings) != 4 {
		t.Fatalf("identical reports: %d moved of %d findings: %+v", cmp.Moved, len(cmp.Findings), cmp.Findings)
	}
	if len(cmp.Notes) != 0 {
		t.Fatalf("identical reports produced notes: %v", cmp.Notes)
	}
}

func TestCompareNoiseWithinThresholdTolerated(t *testing.T) {
	base, fresh := sampleReport(), sampleReport()
	fresh.Micro[2].AllocsPerOp += 2 // the widest wobble seen between runs of one commit
	fresh.Macro[0].SimSeconds = math.Nextafter(fresh.Macro[0].SimSeconds, math.Inf(1))
	// Wall time is not the gate's business, however far it swings.
	fresh.Micro[0].NsPerOp *= 3
	fresh.Macro[0].WallMS *= 3
	if cmp := Compare(base, fresh); cmp.Moved != 0 || len(cmp.Notes) != 0 {
		t.Fatalf("within-slack wobble flagged: %s, notes %v", movedNames(cmp), cmp.Notes)
	}
}

// Each case changes one thing on the fresh side (or, for the last, the
// baseline's Go version): what moves, and what is only a note.
func TestCompareFlagsMovedCounts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(base, fresh *Report)
		moved  string // names of the findings flagged
		note   string // substring of the notes, "" for none
	}{
		{"one more object on a 3-object op", func(_, r *Report) { r.Micro[1].AllocsPerOp = 4 }, "small_op", ""},
		{"an allocation-free op starts allocating", func(_, r *Report) { r.Micro[0].AllocsPerOp = 1 }, "free_op", ""},
		{"sim seconds up 1e-6", func(_, r *Report) { r.Macro[0].SimSeconds *= 1 + 1e-6 }, "dice/fig13a/50", ""},
		{"sim seconds down 1e-6", func(_, r *Report) { r.Macro[0].SimSeconds *= 1 - 1e-6 }, "dice/fig13a/50", ""},
		{"objects fall", func(_, r *Report) { r.Micro[2].AllocsPerOp = 100 }, "", "lower_op allocs_per_op fell"},
		// The runtime's doing or ours: cannot tell, so objects are skipped;
		// simulated seconds are still compared.
		{"another go version", func(b, r *Report) {
			b.GoVersion = "go1.21.0"
			r.Micro[1].AllocsPerOp = 40
			r.Macro[0].SimSeconds *= 2
		}, "dice/fig13a/50", "go_version"},
	} {
		base, fresh := sampleReport(), sampleReport()
		tc.mutate(base, fresh)
		cmp := Compare(base, fresh)
		if got := movedNames(cmp); got != tc.moved || cmp.Moved != len(strings.Fields(tc.moved)) {
			t.Errorf("%s: moved %q (count %d), want %q", tc.name, got, cmp.Moved, tc.moved)
		}
		if notes := strings.Join(cmp.Notes, "; "); !strings.Contains(notes, tc.note) || (tc.note == "" && notes != "") {
			t.Errorf("%s: notes %q, want %q", tc.name, notes, tc.note)
		}
	}
}

func TestCompareReportsMissingBenchmarks(t *testing.T) {
	base, fresh := sampleReport(), sampleReport()
	fresh.Micro = fresh.Micro[:2]                                             // dropped lower_op
	fresh.Micro = append(fresh.Micro, Micro{Name: "new_op", AllocsPerOp: 99}) // added new_op
	fresh.Macro[0].Size = 51                                                  // one macro row replaced by another
	cmp := Compare(base, fresh)
	if cmp.Moved != 0 {
		t.Fatalf("membership changes failed the gate: %s", movedNames(cmp))
	}
	if len(cmp.Notes) != 4 {
		t.Fatalf("want 4 membership notes, got %v", cmp.Notes)
	}
}

func TestLatestBaseline(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep *Report) {
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := LatestBaseline(dir); err == nil {
		t.Fatal("empty dir produced a baseline")
	}
	old := sampleReport()
	old.Micro[0].NsPerOp = 999
	write("BENCH_2.json", old)
	write("BENCH_10.json", sampleReport())
	write("BENCH_notanumber.json", sampleReport()) // ignored
	path, rep, err := LatestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_10.json" {
		t.Fatalf("want BENCH_10.json (numeric ordering), got %s", path)
	}
	if rep.Micro[0].NsPerOp != 50 {
		t.Fatalf("loaded wrong baseline: %+v", rep.Micro[0])
	}
}
