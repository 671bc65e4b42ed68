package bench

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dataflow"
)

func TestMeasureReportsPerOp(t *testing.T) {
	n := 0
	m := measure("count", 10, time.Millisecond, func() { n += 10 })
	if m.Name != "count" {
		t.Fatalf("name = %q", m.Name)
	}
	if m.NsPerOp <= 0 {
		t.Fatalf("ns/op = %v", m.NsPerOp)
	}
	if n < 30 { // warm-up + allocs sampling + at least one timed run
		t.Fatalf("function ran %d ops, expected at least 30", n)
	}
}

func TestMicrobenchLoopsRun(t *testing.T) {
	dataflow.QueuePushPopLoop(64, 4)
	dataflow.AddWorkLoop(64)
	dataflow.MapProjectLoop(64)
	dataflow.RouteHashLoop(64)
}

// harness is one run of the whole harness the way bench-check runs it,
// shared by the tests that read it.
var harness = sync.OnceValues(func() (*Report, error) { return Run(1, 1, time.Millisecond) })

func harnessReport(t *testing.T) *Report {
	t.Helper()
	if testing.Short() {
		t.Skip("harness run in -short mode")
	}
	rep, err := harness()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// The micro table and the pairs table must produce exactly the rows of
// the newest BENCH_<n>.json at the repository root, in order: a row
// added, dropped or renamed without re-recording the trajectory point
// would otherwise only show as a bench-check note.
func TestRunRowsMatchNewestTrajectoryPoint(t *testing.T) {
	rep := harnessReport(t)
	path, newest, err := LatestBaseline("../..")
	if err != nil {
		t.Fatal(err)
	}
	rows := func(r *Report) []string {
		var out []string
		for _, c := range counts(r) {
			out = append(out, c.key())
		}
		return out
	}
	got, want := rows(rep), rows(newest)
	if !slices.Equal(got, want) {
		t.Fatalf("harness rows differ from %s:\n got %v\nwant %v", path, got, want)
	}
}

func TestMacrosTrajectory(t *testing.T) {
	sim := map[string]float64{}
	for _, m := range harnessReport(t).Macro {
		if m.WallMS <= 0 || m.SimSeconds <= 0 {
			t.Fatalf("degenerate macro point %+v", m)
		}
		// Only the telemetry pairs fold their second variant into the row.
		if folded := m.Experiment == "fig13a" || m.Experiment == "fig13c"; folded != (m.WallMSTelemetry > 0) {
			t.Fatalf("telemetry run on the wrong rows: %+v", m)
		}
		sim[m.Task+"/"+m.Experiment] = m.SimSeconds
	}
	for _, o := range []struct{ less, more, why string }{
		{"dice/iterate-warm", "dice/iterate-cold", "all-hit run not cheaper"},
		{"dice/scale-n4", "dice/scale-n1", "4-node cluster not faster"},
		{"dice/opt-on", "dice/opt-off", "optimized plan not faster"},
		{"gotta/opt-on", "gotta/opt-off", "optimized plan not faster"},
	} {
		less, okl := sim[o.less]
		more, okm := sim[o.more]
		if !okl || !okm {
			t.Fatalf("macro pair %s / %s missing: %v", o.less, o.more, sim)
		}
		if less >= more {
			t.Fatalf("%s in simulated seconds: %s %v vs %s %v", o.why, o.less, less, o.more, more)
		}
	}
}

// Every micro must time something, and the telemetry primitives must
// stay allocation-free on the hot path (the overhead guard depends on
// them).
func TestTelemetryMicroLoopsRun(t *testing.T) {
	want := map[string]bool{
		"telemetry_counter_add": false, "telemetry_hist_observe": false, "telemetry_gauge_set": false,
	}
	for _, m := range harnessReport(t).Micro {
		if m.NsPerOp <= 0 {
			t.Fatalf("%s: ns/op = %v", m.Name, m.NsPerOp)
		}
		if _, ok := want[m.Name]; ok {
			want[m.Name] = true
			if m.AllocsPerOp != 0 {
				t.Fatalf("%s allocates %.2f per op on the hot path", m.Name, m.AllocsPerOp)
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("micro %s missing", name)
		}
	}
}
