package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/relation"
)

// Golden determinism under faults: the same fault-plan seed must
// reproduce a run bit-for-bit (SimSeconds, trace totals, recovery
// totals, output digest), and any plan must leave the output digest
// identical to the failure-free run — recovery replays work, it never
// changes what the work computes.

func assertGoldenFaults(t *testing.T, name string, mk func() (core.Task, error)) {
	t.Helper()
	plan := faults.Plan{Seed: 7, Rate: 30, NodeFraction: 0.25, CheckpointEvery: 4}
	run := func(p core.Paradigm, plan faults.Plan) *core.Result {
		task, err := mk()
		if err != nil {
			t.Fatalf("%s: build task: %v", name, err)
		}
		res, err := task.Run(p, core.RunConfig{Faults: plan})
		if err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		return res
	}
	for _, p := range []core.Paradigm{core.Script, core.Workflow} {
		a, b := run(p, plan), run(p, plan)
		if a.SimSeconds != b.SimSeconds {
			t.Errorf("%s/%s: SimSeconds differ: %v vs %v", name, p, a.SimSeconds, b.SimSeconds)
		}
		if a.Trace != b.Trace {
			t.Errorf("%s/%s: trace totals differ:\n  %+v\n  %+v", name, p, a.Trace, b.Trace)
		}
		if a.Recovery != b.Recovery {
			t.Errorf("%s/%s: recovery totals differ:\n  %+v\n  %+v", name, p, a.Recovery, b.Recovery)
		}
		if da, db := relation.Digest(a.Output), relation.Digest(b.Output); da != db {
			t.Errorf("%s/%s: output digests differ: %#x vs %#x", name, p, da, db)
		}
		// And against the failure-free run: same digest, slower or equal
		// clock.
		clean := run(p, faults.Plan{})
		if dc, da := relation.Digest(clean.Output), relation.Digest(a.Output); dc != da {
			t.Errorf("%s/%s: faults changed the output digest: %#x vs %#x", name, p, da, dc)
		}
		if a.SimSeconds < clean.SimSeconds {
			t.Errorf("%s/%s: faulty run faster than clean: %v < %v", name, p, a.SimSeconds, clean.SimSeconds)
		}
	}
}

func TestGoldenDICEDeterministicUnderFaults(t *testing.T) {
	assertGoldenFaults(t, "dice", func() (core.Task, error) {
		return core.NewTask("dice", 10, 1)
	})
}

func TestGoldenKGEDeterministicUnderFaults(t *testing.T) {
	assertGoldenFaults(t, "kge", func() (core.Task, error) {
		return core.NewTask("kge", 340, 1)
	})
}

// The zero plan is inert: a config carrying faults.Plan{} must cost
// exactly nothing over one without it.
func TestZeroFaultPlanIsFree(t *testing.T) {
	for _, p := range []core.Paradigm{core.Script, core.Workflow} {
		run := func(cfg core.RunConfig) *core.Result {
			task, err := core.NewTask("dice", 10, 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := task.Run(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		bare := run(core.RunConfig{})
		zero := run(core.RunConfig{Faults: faults.Plan{}})
		if bare.SimSeconds != zero.SimSeconds {
			t.Errorf("%s: zero plan changed SimSeconds: %v vs %v", p, bare.SimSeconds, zero.SimSeconds)
		}
		if zero.Recovery != (core.RecoveryTotals{}) {
			t.Errorf("%s: zero plan produced recovery work: %+v", p, zero.Recovery)
		}
		if relation.Digest(bare.Output) != relation.Digest(zero.Output) {
			t.Errorf("%s: zero plan changed the output", p)
		}
	}
}

// The recovery experiment itself must be deterministic: two sweeps are
// bit-equal, digests always match, and the workflow's rate-0 point
// carries the checkpoint tax.
func TestRecoveryOverheadDeterministic(t *testing.T) {
	cfg := Config{Scale: 20, Seed: 1}
	a, err := RecoveryOverhead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RecoveryOverhead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(RecoveryRates) || len(b) != len(a) {
		t.Fatalf("sweep lengths: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("point %d differs:\n  %+v\n  %+v", i, a[i], b[i])
		}
		if !a[i].DigestsMatch {
			t.Errorf("point %d (rate %v): digests diverged from baseline", i, a[i].Rate)
		}
	}
	p0 := a[0]
	if p0.Rate != 0 || p0.ScriptKills != 0 || p0.WorkflowKills != 0 {
		t.Fatalf("rate-0 point has kills: %+v", p0)
	}
	if p0.CheckpointSeconds <= 0 {
		t.Errorf("rate-0 point carries no checkpoint tax: %+v", p0)
	}
	if p0.Workflow <= p0.WorkflowClean {
		t.Errorf("rate-0 workflow not slower than clean: %v <= %v", p0.Workflow, p0.WorkflowClean)
	}
	if p0.Script != p0.ScriptClean {
		t.Errorf("rate-0 script should match clean exactly (lineage recovery is free): %v vs %v", p0.Script, p0.ScriptClean)
	}
}
