package dataflow_test

import (
	"testing"

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
