package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func sampleReport() *Report {
	return &Report{
		GoVersion:  "go1.22.0",
		GOMAXPROCS: 4,
		Env: Env{
			GoVersion: "go1.22.0", GOOS: "linux", GOARCH: "amd64",
			GOMAXPROCS: 4, NumCPU: 4,
		},
		Micro: []Micro{
			{Name: "fast_op", NsPerOp: 50, AllocsPerOp: 0},
			{Name: "mid_op", NsPerOp: 500, AllocsPerOp: 1},
			{Name: "slow_op", NsPerOp: 50000, AllocsPerOp: 10},
		},
		Macro: []Macro{
			{Task: "dice", Experiment: "fig13a", Size: 50, WallMS: 120, SimSeconds: 33},
		},
	}
}

func TestCompareUnchangedBaselinePasses(t *testing.T) {
	base, fresh := sampleReport(), sampleReport()
	cmp := Compare(base, fresh)
	if len(cmp.EnvMismatch) != 0 {
		t.Fatalf("identical envs refused: %v", cmp.EnvMismatch)
	}
	if cmp.Regressions != 0 {
		t.Fatalf("identical reports flagged %d regressions: %+v", cmp.Regressions, cmp.Findings)
	}
	if len(cmp.Missing) != 0 {
		t.Fatalf("identical reports reported missing benchmarks: %v", cmp.Missing)
	}
}

func TestCompareFlagsInjectedSlowdown(t *testing.T) {
	base, fresh := sampleReport(), sampleReport()
	// 2x is beyond every tier's threshold (max 60%).
	fresh.Micro[2].NsPerOp *= 2
	fresh.Macro[0].WallMS *= 2
	cmp := Compare(base, fresh)
	if cmp.Regressions != 2 {
		t.Fatalf("want 2 regressions from 2x slowdowns, got %d: %+v", cmp.Regressions, cmp.Findings)
	}
	for _, f := range cmp.Findings {
		switch f.Name {
		case "slow_op", "dice/fig13a/50":
			if !f.Regressed {
				t.Errorf("%s: 2x slowdown not flagged (ratio %.2f, thr %.2f)", f.Name, f.Ratio, f.Threshold)
			}
		default:
			if f.Regressed {
				t.Errorf("%s: unchanged benchmark flagged", f.Name)
			}
		}
	}
}

func TestCompareNoiseWithinThresholdTolerated(t *testing.T) {
	base, fresh := sampleReport(), sampleReport()
	fresh.Micro[0].NsPerOp *= 1.50 // fast tier tolerates 60%
	fresh.Micro[1].NsPerOp *= 1.40 // mid tier tolerates 45%
	fresh.Micro[2].NsPerOp *= 1.25 // slow tier tolerates 30%
	cmp := Compare(base, fresh)
	if cmp.Regressions != 0 {
		t.Fatalf("within-threshold noise flagged: %+v", cmp.Findings)
	}
}

func TestCompareRefusesCrossMachine(t *testing.T) {
	base, fresh := sampleReport(), sampleReport()
	base.Env.NumCPU = 64
	base.Env.GoVersion = "go1.21.0"
	cmp := Compare(base, fresh)
	if len(cmp.EnvMismatch) != 2 {
		t.Fatalf("want 2 mismatch reasons, got %v", cmp.EnvMismatch)
	}
	if len(cmp.Findings) != 0 {
		t.Fatalf("refused comparison still produced findings: %+v", cmp.Findings)
	}
}

func TestCompareRefusesBaselineWithoutEnv(t *testing.T) {
	base, fresh := sampleReport(), sampleReport()
	base.Env = Env{} // pre-Env report: only top-level fields recorded
	cmp := Compare(base, fresh)
	if len(cmp.EnvMismatch) == 0 {
		t.Fatal("baseline with no env block not refused")
	}
	if len(cmp.Findings) != 0 {
		t.Fatalf("refused comparison still produced findings: %+v", cmp.Findings)
	}
}

func TestCompareReportsMissingBenchmarks(t *testing.T) {
	base, fresh := sampleReport(), sampleReport()
	fresh.Micro = fresh.Micro[:2]                                        // dropped slow_op
	fresh.Micro = append(fresh.Micro, Micro{Name: "new_op", NsPerOp: 1}) // added new_op
	cmp := Compare(base, fresh)
	if cmp.Regressions != 0 {
		t.Fatalf("membership changes flagged as regressions: %+v", cmp.Findings)
	}
	if len(cmp.Missing) != 2 {
		t.Fatalf("want 2 missing notes, got %v", cmp.Missing)
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
