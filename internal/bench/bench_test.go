package bench

import (
	"testing"

	"repro/internal/dataflow"
)

func TestMeasureReportsPerOp(t *testing.T) {
	n := 0
	m := measure("count", 10, func() { n += 10 })
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

func TestMacrosTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("macro runs in -short mode")
	}
	mac, err := macros(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(mac) == 0 {
		t.Fatal("no macro points")
	}
	iterate := map[string]Macro{}
	scale := map[string]Macro{}
	optim := map[string]Macro{}
	for _, m := range mac {
		if m.WallMS <= 0 || m.SimSeconds <= 0 {
			t.Fatalf("degenerate macro point %+v", m)
		}
		switch m.Experiment {
		case "iterate-cold", "iterate-warm":
			// The lineage pair has no telemetry variant; it compares a
			// cold run against a fully warm store instead.
			iterate[m.Experiment] = m
			continue
		case "scale-n1", "scale-n4":
			// The sharded pair compares cluster widths, not telemetry.
			scale[m.Experiment] = m
			continue
		case "opt-off", "opt-on":
			// The optimizer pair compares plans, not telemetry; it runs
			// once per task, so key by task too.
			optim[m.Task+"/"+m.Experiment] = m
			continue
		}
		if m.WallMSTelemetry <= 0 {
			t.Fatalf("telemetry run missing from macro point %+v", m)
		}
	}
	cold, okc := iterate["iterate-cold"]
	warm, okw := iterate["iterate-warm"]
	if !okc || !okw {
		t.Fatalf("iterate macro pair missing: %+v", iterate)
	}
	if warm.SimSeconds >= cold.SimSeconds {
		t.Fatalf("all-hit run not cheaper in simulated seconds: warm %v vs cold %v",
			warm.SimSeconds, cold.SimSeconds)
	}
	n1, ok1 := scale["scale-n1"]
	n4, ok4 := scale["scale-n4"]
	if !ok1 || !ok4 {
		t.Fatalf("sharded macro pair missing: %+v", scale)
	}
	if n4.SimSeconds >= n1.SimSeconds {
		t.Fatalf("4-node cluster not faster in simulated seconds: n4 %v vs n1 %v",
			n4.SimSeconds, n1.SimSeconds)
	}
	for _, task := range []string{"dice", "gotta"} {
		oOff, okf := optim[task+"/opt-off"]
		oOn, okn := optim[task+"/opt-on"]
		if !okf || !okn {
			t.Fatalf("optimizer macro pair missing for %s: %+v", task, optim)
		}
		if oOn.SimSeconds >= oOff.SimSeconds {
			t.Fatalf("%s: optimized plan not faster in simulated seconds: on %v vs off %v",
				task, oOn.SimSeconds, oOff.SimSeconds)
		}
	}
}

// The telemetry micro-benchmarks must keep running (the overhead guard
// depends on them); this exercises the same loops measure() times.
func TestTelemetryMicroLoopsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("micro sweep in -short mode")
	}
	micros := micros()
	want := map[string]bool{
		"telemetry_counter_add": false, "telemetry_hist_observe": false, "telemetry_gauge_set": false,
	}
	for _, m := range micros {
		if _, ok := want[m.Name]; ok {
			want[m.Name] = true
			if m.NsPerOp <= 0 {
				t.Fatalf("%s: ns/op = %v", m.Name, m.NsPerOp)
			}
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
