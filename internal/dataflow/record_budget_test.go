package dataflow_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/cost"
	"repro/internal/dataflow"
	"repro/internal/tasks/dice"
)

// TestRecorderScheduleAllocBudget holds what recording a finished DICE
// workflow run at 4 workers into a fresh recorder costs: a constant
// number of heap objects (lanes, per-node and per-edge counters, the
// span storage, and the names of the startup, init and close jobs,
// which lowering no longer formats), however many batches the run had:
// about 490 at both sizes, 3.8 k and 5.8 k batch jobs (about 470 when
// lowering named those jobs itself, on every run). (With a name string
// per batch span and every span built as a []Span of strings first, the
// same recordings took 6,081 and 10,059 objects.)
func TestRecorderScheduleAllocBudget(t *testing.T) {
	const budget = 600
	for _, pairs := range []int{100, 200} {
		task, err := dice.New(dice.Params{Pairs: pairs, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		w, err := task.WorkflowPlan(4)
		if err != nil {
			t.Fatal(err)
		}
		objects, batches, err := dataflow.RecordingAllocs(w)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("DICE-%d at 4 workers: recording %d batch jobs allocated %d objects of a %d budget", pairs, batches, objects, budget)
		if objects > budget {
			t.Errorf("DICE-%d at 4 workers: recording %d batch jobs allocated %d objects, budget %d", pairs, batches, objects, budget)
		}
	}
}

// TestLowerScheduleAllocBudget holds what lowering and scheduling a
// finished DICE-200 workflow run at 4 workers costs with no recorder
// and no faults attached (SimTime, as the executor does at the end of
// every run): 185,800 bytes in 161 heap objects for its 5,849 jobs
// (185,928 in 161 under the race detector), of a 200,000-byte and
// 175-object budget. The bytes are the event loop's 16-byte record per
// job and the pools' ready queues; lowering itself takes about 10 KB.
// (With a sim.Job, a Deps slice, a jobMeta, a dependents row, a
// 24-byte jobState and a Span kept for every job, the same lowering and
// schedule took 921,112 bytes in 182 objects; with each pool named
// through fmt.Sprintf, 178 objects.)
func TestLowerScheduleAllocBudget(t *testing.T) {
	const byteBudget, objBudget = 200_000, 175
	task, err := dice.New(dice.Params{Pairs: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := task.WorkflowPlan(4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(context.Background(), dataflow.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := cost.Default()
	run := func() (bytes, objects uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := dataflow.SimTime(res.Trace, m); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	run() // warm-up: lazy initialisation is not the run's cost
	bytes, objects := run()
	t.Logf("lowering and scheduling DICE-200 at 4 workers allocated %d bytes of a %d budget in %d objects of %d", bytes, byteBudget, objects, objBudget)
	if bytes > byteBudget {
		t.Errorf("lowering and scheduling DICE-200 at 4 workers allocated %d bytes, budget %d", bytes, byteBudget)
	}
	if objects > objBudget {
		t.Errorf("lowering and scheduling DICE-200 at 4 workers allocated %d objects, budget %d", objects, objBudget)
	}
}
