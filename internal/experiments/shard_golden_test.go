package experiments

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/relation"
	"repro/internal/tasks/dice"
	"repro/internal/tasks/kge"
)

// The sharded-tier golden tests pin the tier's core invariant: node
// topology, exchange pricing, spill planning and whole-node loss act
// only on the schedule/cost plane, so the output digest of any
// topology — nodes=1, nodes=4, nodes=4 plus node loss, spilling or
// in-memory — is bit-identical to the legacy single-cluster run.

func shardTasks(t *testing.T) map[string]func() (core.Task, error) {
	t.Helper()
	return map[string]func() (core.Task, error){
		"dice": func() (core.Task, error) { return dice.New(dice.Params{Pairs: 20, Seed: 1}) },
		"kge":  func() (core.Task, error) { return kge.New(kge.Params{Products: 340, Seed: 1}) },
	}
}

func runAt(t *testing.T, mk func() (core.Task, error), p core.Paradigm, opts ...core.Option) *core.Result {
	t.Helper()
	task, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := core.NewRunConfig(opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := task.Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGoldenTopologyBitEqual(t *testing.T) {
	for name, mk := range shardTasks(t) {
		for _, p := range []core.Paradigm{core.Script, core.Workflow} {
			base := runAt(t, mk, p, core.WithWorkers(8))
			want := relation.Digest(base.Output)

			sharded := runAt(t, mk, p, core.WithWorkers(8), core.WithNodes(4))
			if got := relation.Digest(sharded.Output); got != want {
				t.Errorf("%s/%s: nodes=4 digest %#x != nodes=1 digest %#x", name, p, got, want)
			}

			// Whole-node loss: every fault is node-level.
			plan := faults.Plan{Seed: 7, Rate: 4, NodeFraction: 1, MaxFaults: 3}
			lossy := runAt(t, mk, p, core.WithWorkers(8), core.WithNodes(4), core.WithFaults(plan))
			if got := relation.Digest(lossy.Output); got != want {
				t.Errorf("%s/%s: nodes=4+node-loss digest %#x != baseline %#x", name, p, got, want)
			}
			if lossy.SimSeconds < sharded.SimSeconds {
				t.Errorf("%s/%s: node loss made the run faster (%.3f < %.3f)", name, p, lossy.SimSeconds, sharded.SimSeconds)
			}
		}
	}
}

func TestGoldenSpillBitEqual(t *testing.T) {
	for name, mk := range shardTasks(t) {
		inMem := runAt(t, mk, core.Workflow, core.WithWorkers(8), core.WithNodes(4))
		if inMem.Trace.SpillBytes != 0 {
			t.Fatalf("%s: default budget spilled %d bytes at test scale", name, inMem.Trace.SpillBytes)
		}
		// A one-byte budget forces every blocking operator through the
		// grace spill path.
		spilled := runAt(t, mk, core.Workflow, core.WithWorkers(8), core.WithNodes(4), core.WithShardMem(1))
		if spilled.Trace.SpillBytes == 0 {
			t.Fatalf("%s: 1-byte worker budget did not spill", name)
		}
		// Spill cost lands on the schedule plane; off the critical path
		// it can be absorbed by slack, but it may never help.
		if spilled.SimSeconds < inMem.SimSeconds {
			t.Errorf("%s: spilling made the run faster (%.3f < %.3f)", name, spilled.SimSeconds, inMem.SimSeconds)
		}
		if relation.Digest(spilled.Output) != relation.Digest(inMem.Output) {
			t.Errorf("%s: spilled output digest differs from in-memory digest", name)
		}
	}
}

// sameSchedule reports whether two runs of one workflow agree:
// SimSeconds, WorkInterp and WorkMem to 1e-9 relative (parallel workers
// fold their float work in batch-arrival order, so those three wobble in
// the last ULP between runs of one commit), every count and byte total
// exactly.
func sameSchedule(a, b *core.Result) bool {
	near := func(x, y float64) bool { return math.Abs(x-y) <= 1e-9*math.Abs(x) }
	ta, tb := a.Trace, b.Trace
	floats := near(a.SimSeconds, b.SimSeconds) && near(ta.WorkInterp, tb.WorkInterp) && near(ta.WorkMem, tb.WorkMem)
	ta.WorkInterp, ta.WorkMem = 0, 0
	tb.WorkInterp, tb.WorkMem = 0, 0
	return floats && ta == tb
}

func TestGoldenShardedScheduleDeterministic(t *testing.T) {
	mk := shardTasks(t)["dice"]
	run := func() *core.Result {
		return runAt(t, mk, core.Workflow, core.WithWorkers(16), core.WithNodes(4), core.WithShardMem(4<<10))
	}
	a, b := run(), run()
	if !sameSchedule(a, b) {
		t.Errorf("sharded schedule differs between runs:\n  %v %+v\n  %v %+v", a.SimSeconds, a.Trace, b.SimSeconds, b.Trace)
	}
	if a.Trace.ShuffleBytes == 0 {
		t.Error("sharded run priced no exchange traffic")
	}
	if relation.Digest(a.Output) != relation.Digest(b.Output) {
		t.Error("sharded output digests differ between runs")
	}
}

// The legacy tier must be byte-for-byte the pre-shard path: no
// exchange pricing, no spill, and the same schedule as a config that
// never mentions nodes.
func TestLegacyTierUnchanged(t *testing.T) {
	mk := shardTasks(t)["dice"]
	plain := runAt(t, mk, core.Workflow, core.WithWorkers(8))
	explicit := runAt(t, mk, core.Workflow, core.WithWorkers(8), core.WithNodes(1))
	if !sameSchedule(plain, explicit) {
		t.Errorf("nodes=1 changed the schedule:\n  %v %+v\n  %v %+v", explicit.SimSeconds, explicit.Trace, plain.SimSeconds, plain.Trace)
	}
	if explicit.Trace.ShuffleBytes != 0 || explicit.Trace.SpillBytes != 0 {
		t.Errorf("legacy tier priced shuffle/spill: %+v", explicit.Trace)
	}
}

func TestScaleExperimentShape(t *testing.T) {
	rows, err := Scale(Config{Scale: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(ScaleFactors) * len(ScaleNodes); len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if !r.OutputsAgree || !r.DigestsStable || !r.NodeLossStable {
			t.Fatalf("row %+v lost determinism", r)
		}
		if r.Nodes > 1 && r.ShuffleBytes == 0 {
			t.Errorf("sharded row (factor %d, nodes %d) priced no shuffle", r.Factor, r.Nodes)
		}
		if r.Nodes == 1 && (r.ShuffleBytes != 0 || r.SpillBytes != 0) {
			t.Errorf("legacy row (factor %d) priced shuffle/spill", r.Factor)
		}
	}
}
