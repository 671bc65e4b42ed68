package dataflow

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/lineage"
	"repro/internal/relation"
	"repro/internal/telemetry"
)

func lineageTestWorkflow(t *testing.T, filterRev int) *Workflow {
	t.Helper()
	s := relation.MustSchema(
		relation.Field{Name: "k", Type: relation.Int},
		relation.Field{Name: "v", Type: relation.String},
	)
	src := relation.NewTable(s)
	for i := 0; i < 500; i++ {
		src.AppendUnchecked(relation.Tuple{relation.IntValue(int64(i)), relation.StringValue(fmt.Sprintf("row-%d", i))})
	}
	w := New("lin-test")
	source := w.Source("numbers", src)
	keep := w.Op(NewFilter("keep-even", cost.Python, func(r relation.Tuple) bool {
		return r[0].Int()%2 == 0
	}), WithSignature(fmt.Sprintf("rev=%d", filterRev)))
	double := w.Op(NewMap("double", cost.Python, s, func(r relation.Tuple, out *Rows) error {
		out.Emit(relation.IntValue(r[0].Int()*2), r[1])
		return nil
	}))
	sink := w.Sink("out")
	w.Connect(source, keep, 0, RoundRobin())
	w.Connect(keep, double, 0, RoundRobin())
	w.Connect(double, sink, 0, RoundRobin())
	return w
}

func TestLineageWorkflowReuse(t *testing.T) {
	store, err := lineage.NewStore(cost.Default(), 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func(rev int) *Result {
		res, err := lineageTestWorkflow(t, rev).Run(context.Background(), Config{Lineage: store})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	coldRes, err := lineageTestWorkflow(t, 0).Run(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Populate.
	r1 := run(0)
	if r1.Lineage == nil || r1.Lineage.Commits != 4 || r1.Lineage.Reused != 0 {
		t.Fatalf("populate run report: %+v", r1.Lineage)
	}
	if relation.Digest(r1.Tables["out"]) != relation.Digest(coldRes.Tables["out"]) {
		t.Fatal("lineage-armed cold run changed the output")
	}

	// Unchanged re-run: everything is a hit, nothing executes, and the
	// incremental run is strictly cheaper than cold.
	r2 := run(0)
	if r2.Lineage.Reused != 4 || r2.Lineage.Commits != 0 {
		t.Fatalf("all-hit run report: %+v", r2.Lineage)
	}
	if relation.Digest(r2.Tables["out"]) != relation.Digest(r1.Tables["out"]) {
		t.Fatal("all-hit run changed the output")
	}
	if r2.SimSeconds >= r1.SimSeconds {
		t.Fatalf("all-hit run (%g s) not cheaper than populate run (%g s)", r2.SimSeconds, r1.SimSeconds)
	}
	// Only the skipped sink remains in the trace.
	if len(r2.Trace.Nodes) != 1 || r2.Trace.Nodes[0].Kind != "sink" {
		t.Fatalf("all-hit trace should contain only the cached sink view, got %d nodes", len(r2.Trace.Nodes))
	}

	// Edit the filter: it and its suffix re-run, the source is replayed
	// from cache, and the output is bit-equal to a cold run of the same
	// (semantics-preserving) edit.
	r3 := run(1)
	if r3.Lineage.Reused != 1 || r3.Lineage.Invalidations == 0 {
		t.Fatalf("edit run report: %+v", r3.Lineage)
	}
	if r3.Lineage.HitBytes == 0 {
		t.Fatal("workflow replay should fetch artifact bytes")
	}
	if relation.Digest(r3.Tables["out"]) != relation.Digest(coldRes.Tables["out"]) {
		t.Fatal("incremental edit run diverged from cold output")
	}
	if r3.SimSeconds >= coldRes.SimSeconds {
		t.Fatalf("incremental edit run (%g s) not cheaper than cold (%g s)", r3.SimSeconds, coldRes.SimSeconds)
	}
}

// fanOutWorkflow is a source feeding two branches, each ending in its
// own sink; evenRev and doubleRev version the two branch operators.
func fanOutWorkflow(evenRev, doubleRev int) *Workflow {
	s := relation.MustSchema(
		relation.Field{Name: "k", Type: relation.Int},
		relation.Field{Name: "v", Type: relation.String},
	)
	src := relation.NewTable(s)
	for i := 0; i < 500; i++ {
		src.AppendUnchecked(relation.Tuple{relation.IntValue(int64(i)), relation.StringValue(fmt.Sprintf("row-%d", i))})
	}
	w := New("fan-out")
	source := w.Source("numbers", src)
	keep := w.Op(NewFilter("keep-even", cost.Python, func(r relation.Tuple) bool {
		return r[0].Int()%2 == 0
	}), WithSignature(fmt.Sprintf("rev=%d", evenRev)))
	double := w.Op(NewMap("double", cost.Python, s, func(r relation.Tuple, out *Rows) error {
		out.Emit(relation.IntValue(r[0].Int()*2), r[1])
		return nil
	}), WithSignature(fmt.Sprintf("rev=%d", doubleRev)))
	w.Connect(source, keep, 0, RoundRobin())
	w.Connect(source, double, 0, RoundRobin())
	w.Connect(keep, w.Sink("evens"), 0, RoundRobin())
	w.Connect(double, w.Sink("doubled"), 0, RoundRobin())
	return w
}

// progressLog is a ProgressSink that keeps every event.
type progressLog struct {
	mu     sync.Mutex
	events []telemetry.ProgressEvent
}

func (l *progressLog) Publish(ev telemetry.ProgressEvent) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// A replay feeds only the consumers that execute: editing one branch of
// a fan-out replays the shared source into that branch alone, and the
// edge into the untouched branch carries and records nothing.
func TestLineageReplayFeedsOnlyExecutingConsumers(t *testing.T) {
	cold, err := fanOutWorkflow(1, 0).Run(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	store, err := lineage.NewStore(cost.Default(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fanOutWorkflow(0, 0).Run(context.Background(), Config{Lineage: store}); err != nil {
		t.Fatal(err)
	}
	rec, progress := telemetry.New(), &progressLog{}
	res, err := fanOutWorkflow(1, 0).Run(context.Background(), Config{Lineage: store, Telemetry: rec, Progress: progress})
	if err != nil {
		t.Fatal(err)
	}

	counters := map[string]int64{}
	for _, c := range rec.Metrics.Snapshot(false).Counters {
		counters[c.Name] = c.Value
	}
	if counters["wf.fan-out.node.numbers.lineage_hit"] != 1 || counters["wf.fan-out.node.numbers.out_tuples"] != 500 {
		t.Fatalf("source not replayed: lineage_hit %d, out_tuples %d",
			counters["wf.fan-out.node.numbers.lineage_hit"], counters["wf.fan-out.node.numbers.out_tuples"])
	}
	for _, stat := range []string{"batches", "tuples", "bytes"} {
		if got := counters["wf.fan-out.edge.numbers->double.p0."+stat]; got != 0 {
			t.Errorf("edge into the untouched branch counts %d %s", got, stat)
		}
		if got := counters["wf.fan-out.edge.numbers->keep-even.p0."+stat]; got == 0 {
			t.Errorf("edge into the edited branch counts no %s", stat)
		}
	}
	names := map[NodeID]string{}
	for _, n := range res.Trace.Nodes {
		names[n.ID] = n.Name
	}
	for _, e := range res.Trace.Edges {
		if names[e.From] == "numbers" && names[e.To] != "keep-even" {
			t.Errorf("trace holds the edge numbers -> #%d (%q)", e.To, names[e.To])
		}
	}

	for _, sink := range []string{"evens", "doubled"} {
		if relation.Digest(res.Tables[sink]) != relation.Digest(cold.Tables[sink]) {
			t.Errorf("sink %q differs from a cold run's", sink)
		}
	}

	n := 0
	for _, ev := range progress.events {
		if ev.Op == "numbers" && ev.State == "progress" {
			n++
		}
	}
	if n == 0 {
		t.Error("the replayed source published no progress events")
	}
}

func TestLineageModelChangeInvalidates(t *testing.T) {
	store, err := lineage.NewStore(cost.Default(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lineageTestWorkflow(t, 0).Run(context.Background(), Config{Lineage: store}); err != nil {
		t.Fatal(err)
	}
	m := cost.Default()
	m.SerdeBytesPerSec *= 2 // recalibration = a different model version
	res, err := lineageTestWorkflow(t, 0).Run(context.Background(), Config{Lineage: store, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lineage.Reused != 0 {
		t.Fatalf("recalibrated model must not hit the old cache: %+v", res.Lineage)
	}
}
