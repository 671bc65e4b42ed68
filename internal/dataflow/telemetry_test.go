package dataflow

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/relation"
	"repro/internal/telemetry"
)

func telemetryWorkflow() *Workflow {
	in := intTable(400)
	w := New("teltest")
	src := w.Source("src", in)
	f := w.Op(NewFilter("keep-even", cost.Python, func(r relation.Tuple) bool { return r[1].Int()%2 == 0 }))
	snk := w.Sink("out")
	w.Connect(src, f, 0, RoundRobin())
	w.Connect(f, snk, 0, RoundRobin())
	return w
}

func TestExecTelemetrySpansAndCounters(t *testing.T) {
	rec := telemetry.New()
	if _, err := telemetryWorkflow().Run(context.Background(), Config{Telemetry: rec}); err != nil {
		t.Fatal(err)
	}

	spans := rec.Spans()
	var virt, wall int
	for _, sp := range spans {
		if sp.Proc != "workflow:teltest" {
			t.Fatalf("span proc = %q", sp.Proc)
		}
		if sp.HasVirt {
			virt++
		}
		if sp.HasWall {
			wall++
		}
	}
	if virt == 0 {
		t.Fatal("no virtual-clock spans recorded")
	}
	if wall == 0 {
		t.Fatal("no wall-clock spans recorded")
	}

	snap := rec.Metrics.Snapshot(true)
	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	// Input had 400 rows; the filter keeps even values of column 1.
	if got := counters["wf.teltest.node.src.out_tuples"]; got != 400 {
		t.Fatalf("source out_tuples = %d, want 400", got)
	}
	if got := counters["wf.teltest.edge.src->keep-even.p0.tuples"]; got != 400 {
		t.Fatalf("edge tuples = %d, want 400", got)
	}
	if got := counters["wf.teltest.exec.tuples"]; got == 0 {
		t.Fatal("hot-path tuple counter never incremented")
	}

	if len(rec.Critical()) == 0 {
		t.Fatal("no critical-path rows recorded")
	}
	if _, ok := rec.Meta()["wf.teltest.makespan"]; !ok {
		t.Fatalf("makespan meta missing: %v", rec.Meta())
	}
}

// Two instrumented runs must export bit-equal deterministic telemetry:
// virtual spans come from the sim schedule and counters from exact data
// volumes, neither depends on goroutine interleaving.
func TestExecTelemetryDeterministic(t *testing.T) {
	export := func() ([]byte, []byte) {
		rec := telemetry.New()
		if _, err := telemetryWorkflow().Run(context.Background(), Config{Telemetry: rec}); err != nil {
			t.Fatal(err)
		}
		var trace, metrics bytes.Buffer
		if err := rec.WriteChromeTrace(&trace, telemetry.ExportOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := rec.WriteMetrics(&metrics, false); err != nil {
			t.Fatal(err)
		}
		return trace.Bytes(), metrics.Bytes()
	}
	t1, m1 := export()
	t2, m2 := export()
	if !bytes.Equal(t1, t2) {
		t.Fatal("Chrome traces from identical runs differ")
	}
	if !bytes.Equal(m1, m2) {
		t.Fatal("metrics dumps from identical runs differ")
	}
	if !strings.Contains(string(t1), "keep-even") {
		t.Fatal("trace missing operator track")
	}
}
