package dataflow

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/lineage"
	"repro/internal/relation"
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
