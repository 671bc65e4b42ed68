package dataflow

import (
	"context"
	"testing"

	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/relation"
	"repro/internal/shard"
)

// faultWorkflow builds a small source → filter → sink pipeline, fresh
// per call so runs are independent.
func faultWorkflow() (*Workflow, *relation.Table) {
	in := intTable(400)
	w := New("faulty")
	src := sourceBatched(w, "src", in, 16)
	f := w.Op(NewFilter("keep", cost.Python, func(r relation.Tuple) bool { return r[1].Int()%3 != 0 }))
	snk := w.Sink("out")
	w.Connect(src, f, 0, RoundRobin())
	w.Connect(f, snk, 0, RoundRobin())
	return w, relation.Filter(in, func(r relation.Tuple) bool { return r[1].Int()%3 != 0 })
}

func TestCheckpointTaxWithoutFaults(t *testing.T) {
	w, _ := faultWorkflow()
	clean, err := w.Run(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := faultWorkflow()
	armed, err := w2.Run(context.Background(), Config{
		Faults: faults.Plan{CheckpointEvery: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if armed.Recovery == nil {
		t.Fatal("armed run has no recovery info")
	}
	if armed.Recovery.Checkpoints == 0 || armed.Recovery.CheckpointWriteSeconds <= 0 {
		t.Fatalf("checkpointing not costed: %+v", armed.Recovery)
	}
	if armed.Recovery.Kills != 0 {
		t.Fatalf("kills without injection: %+v", armed.Recovery)
	}
	// The write tax must show up as a longer simulated run.
	if armed.SimSeconds <= clean.SimSeconds {
		t.Fatalf("checkpoint tax missing: armed %v <= clean %v", armed.SimSeconds, clean.SimSeconds)
	}
	// And the data must be untouched.
	if !armed.Tables["out"].Equal(clean.Tables["out"]) {
		t.Fatal("checkpointing changed the output table")
	}
}

func TestZeroFaultPlanAddsNothing(t *testing.T) {
	w, _ := faultWorkflow()
	clean, err := w.Run(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := faultWorkflow()
	zero, err := w2.Run(context.Background(), Config{Faults: faults.Plan{}})
	if err != nil {
		t.Fatal(err)
	}
	if zero.Recovery != nil {
		t.Fatalf("zero plan produced recovery info: %+v", zero.Recovery)
	}
	if zero.SimSeconds != clean.SimSeconds {
		t.Fatalf("zero plan changed sim time: %v vs %v", zero.SimSeconds, clean.SimSeconds)
	}
}

func TestFaultInjectionDeterministicAndDigestPreserving(t *testing.T) {
	plan := faults.Plan{Seed: 5, Rate: 300, NodeFraction: 0.3, CheckpointEvery: 4}
	run := func() *Result {
		w, _ := faultWorkflow()
		res, err := w.Run(context.Background(), Config{Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.SimSeconds != b.SimSeconds {
		t.Fatalf("faulty runs differ: %v vs %v", a.SimSeconds, b.SimSeconds)
	}
	if *a.Recovery != *b.Recovery {
		t.Fatalf("recovery differs: %+v vs %+v", a.Recovery, b.Recovery)
	}
	if a.Recovery.Kills == 0 {
		t.Fatalf("expected kills at rate 300/100s: %+v", a.Recovery)
	}
	if a.Recovery.DelaySeconds <= 0 {
		t.Fatalf("kills without respawn cost: %+v", a.Recovery)
	}
	w, want := faultWorkflow()
	clean, err := w.Run(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Tables["out"].Equal(clean.Tables["out"]) || !a.Tables["out"].Equal(want) {
		t.Fatal("faults changed the output table")
	}
	if a.SimSeconds <= clean.SimSeconds {
		t.Fatalf("faulty run not slower: %v <= %v", a.SimSeconds, clean.SimSeconds)
	}
}

func TestKilledBatchJobPaysRestore(t *testing.T) {
	// A synthetic trace whose single operator has long batch jobs, so a
	// mid-run fault is guaranteed to kill one and charge a checkpoint
	// restore.
	tr := &Trace{
		Workflow: "restore",
		Nodes: []NodeTrace{
			{ID: 0, Name: "src", Kind: "source", Parallelism: 1, EmittedBatches: 4, WorkByPort: []cost.Work{{Interp: 0.4}}},
			{ID: 1, Name: "op", Kind: "operator", Parallelism: 1, WorkByPort: []cost.Work{{Interp: 400}}},
		},
		Edges: []EdgeTrace{{From: 0, To: 1, Port: 0, Batches: 4, Tuples: 4000, Bytes: 40 << 20}},
	}
	m := cost.Default()
	jobs, pools, meta, err := lowerWithMeta(tr, m)
	if err != nil {
		t.Fatal(err)
	}
	// Rate 2/100s over a ~400s horizon lands several faults inside the
	// 100-second batch jobs.
	sched, info, err := scheduleWithFaults(jobs, pools, meta, tr, m, faults.Plan{Seed: 1, Rate: 2, CheckpointEvery: 2}, shard.Topology{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if info.Kills == 0 {
		t.Fatalf("no kills over a %vs horizon", sched.Makespan)
	}
	if info.RestoreSeconds <= 0 {
		t.Fatalf("killed batch jobs paid no restore: %+v", info)
	}
	if info.Checkpoints != 2+2 { // 4 batches at every=2, per node
		t.Fatalf("checkpoints = %d, want 4", info.Checkpoints)
	}
}

func TestInvalidFaultPlanRejected(t *testing.T) {
	w, _ := faultWorkflow()
	_, err := w.Run(context.Background(), Config{Faults: faults.Plan{Rate: -1}})
	if err == nil {
		t.Fatal("negative fault rate accepted")
	}
}

func TestCheckpointNow(t *testing.T) {
	w, _ := faultWorkflow()
	ex, err := w.Start(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	cp := ex.CheckpointNow()
	if ex.Paused() {
		t.Fatal("CheckpointNow left the execution paused")
	}
	if len(cp.Nodes) != 3 {
		t.Fatalf("checkpoint nodes = %d, want 3", len(cp.Nodes))
	}
	if cp.TotalBytes < sourceStateBytes {
		t.Fatalf("total bytes = %d", cp.TotalBytes)
	}
	if cp.WriteSeconds <= 0 {
		t.Fatalf("write seconds = %v", cp.WriteSeconds)
	}
	if _, err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
	// A caller-paused execution stays paused.
	ex2, err := faultWorkflowStart(t)
	if err != nil {
		t.Fatal(err)
	}
	ex2.Pause()
	ex2.CheckpointNow()
	if !ex2.Paused() {
		t.Fatal("CheckpointNow resumed a caller-paused execution")
	}
	ex2.Resume()
	if _, err := ex2.Wait(); err != nil {
		t.Fatal(err)
	}

	// An operator nothing reached — its producer, a filter, rejected
	// every row — checkpoints bookkeeping only, as a source does and as
	// the schedule prices it.
	w3 := New("starved")
	src := sourceBatched(w3, "src", intTable(400), 16)
	none := w3.Op(NewFilter("none", cost.Python, func(relation.Tuple) bool { return false }))
	after := w3.Op(NewFilter("after", cost.Python, func(relation.Tuple) bool { return true }))
	snk := w3.Sink("out")
	w3.Connect(src, none, 0, RoundRobin())
	w3.Connect(none, after, 0, RoundRobin())
	w3.Connect(after, snk, 0, RoundRobin())
	ex3, err := w3.Start(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex3.Wait(); err != nil {
		t.Fatal(err)
	}
	got := int64(-1)
	for _, n := range ex3.CheckpointNow().Nodes {
		if n.Name == "after" {
			got = n.StateBytes
		}
	}
	if got != sourceStateBytes {
		t.Fatalf("operator behind a reject-all filter checkpoints %d bytes, want %d", got, sourceStateBytes)
	}
}

func faultWorkflowStart(t *testing.T) (*Execution, error) {
	t.Helper()
	w, _ := faultWorkflow()
	return w.Start(context.Background(), Config{})
}
