package planopt_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/pipeline"
	"repro/internal/planopt"

	_ "repro/internal/tasks/dice"
	_ "repro/internal/tasks/gotta"
	_ "repro/internal/tasks/kge"
	_ "repro/internal/tasks/wef"
)

// TestMapCellsMatchDeclaredSchemas pins the kind of every cell a task's
// map UDF emits. A UDF passes a cell through as in[i] without reading
// it through its kind's accessor, so nothing at run time checks that the
// cell is of the type the output schema declares, and the output digests only
// cover cells that reach a sink. The estimator already feeds real
// sample rows through every map it can reach; a map behind an opaque
// operator, which the estimator cannot sample, feeds its task's sink,
// so one real run's sink table covers it.
func TestMapCellsMatchDeclaredSchemas(t *testing.T) {
	maps := 0
	for _, task := range []struct {
		name string
		size int
	}{{"dice", 20}, {"wef", 40}, {"gotta", 2}, {"kge", 340}} {
		built, err := core.NewTask(task.name, task.size, 1)
		if err != nil {
			t.Fatal(err)
		}
		w, err := built.(pipeline.PlanProvider).WorkflowPlan(4)
		if err != nil {
			t.Fatal(err)
		}
		samples, err := planopt.Samples(w, 512)
		if err != nil {
			t.Fatal(err)
		}
		ids, err := w.TopoIDs()
		if err != nil {
			t.Fatal(err)
		}
		unsampled := 0
		for _, id := range ids {
			op, ok := w.OperatorAt(id).(*dataflow.MapOp)
			if !ok {
				continue
			}
			maps++
			if samples[id] == nil || samples[id].Len() == 0 {
				unsampled++
				continue
			}
			for _, row := range samples[id].Rows() {
				if err := row.Validate(op.Out); err != nil {
					t.Errorf("%s: map %q emitted %v: %v", task.name, op.Desc().Name, row, err)
					break
				}
			}
		}
		t.Logf("%s: %d of its maps are behind an operator the estimator cannot sample", task.name, unsampled)
		if unsampled == 0 {
			continue
		}
		res, err := w.Run(context.Background(), dataflow.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for sink, tbl := range res.Tables {
			for _, row := range tbl.Rows() {
				if err := row.Validate(tbl.Schema()); err != nil {
					t.Errorf("%s: sink %q holds %v: %v", task.name, sink, row, err)
					break
				}
			}
		}
	}
	if maps != 10 {
		t.Errorf("walked %d map operators; the four plans declare 10 (dice 7, gotta 2, wef 1)", maps)
	}
}
