package dataflow_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/dataflow"
	"repro/internal/sim"
	"repro/internal/tasks/dice"
)

type goldenJob struct {
	Name    string      `json:"name"`
	Pool    string      `json:"pool"`
	Cost    float64     `json:"cost"`
	Latency float64     `json:"latency"`
	Deps    []sim.JobID `json:"deps"`
}

type goldenLowering struct {
	Pools []sim.Pool  `json:"pools"`
	Jobs  []goldenJob `json:"jobs"`
}

// TestLowerDICE20Golden pins what lowering hands the simulator and the
// recorder for a real trace: every job of DICE-20 — its name as a
// recorded span shows it, its pool's name, cost, latency and
// dependencies (positions) — equals testdata/lower_dice20_golden.json,
// recorded at 7c7000c where every name was formatted eagerly and every
// job carried its ID and its pool's name. Costs compare exactly at one worker and
// to 1e-9 relative at four, where a node's work total already differs
// in the last ULP between two runs of one commit (workers fold float
// work in batch-arrival order).
func TestLowerDICE20Golden(t *testing.T) {
	got := map[string]goldenLowering{}
	for _, workers := range []int{1, 4} {
		task, err := dice.New(dice.Params{Pairs: 20, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		w, err := task.WorkflowPlan(workers)
		if err != nil {
			t.Fatal(err)
		}
		res, err := w.Run(context.Background(), dataflow.Config{})
		if err != nil {
			t.Fatal(err)
		}
		jobs, pools, names, err := dataflow.LowerNamed(res.Trace, cost.Default())
		if err != nil {
			t.Fatal(err)
		}
		g := goldenLowering{Pools: pools, Jobs: make([]goldenJob, len(jobs))}
		for i, j := range jobs {
			g.Jobs[i] = goldenJob{Name: names[i], Pool: pools[j.Pool].Name, Cost: j.Cost, Latency: j.Latency, Deps: j.Deps}
		}
		got[fmt.Sprintf("workers=%d", workers)] = g
	}

	var want map[string]goldenLowering
	if !dataflow.GoldenJSON(t, "lower_dice20_golden.json", got, &want) {
		return
	}
	for name, w := range want {
		g := got[name]
		if !reflect.DeepEqual(g.Pools, w.Pools) {
			t.Errorf("%s: pools = %v, want %v", name, g.Pools, w.Pools)
		}
		if len(g.Jobs) != len(w.Jobs) {
			t.Errorf("%s: %d jobs, want %d", name, len(g.Jobs), len(w.Jobs))
			continue
		}
		exact := name == "workers=1"
		for i, wj := range w.Jobs {
			gj := g.Jobs[i]
			same := gj.Name == wj.Name && gj.Pool == wj.Pool && gj.Latency == wj.Latency && slices.Equal(gj.Deps, wj.Deps)
			if exact {
				same = same && gj.Cost == wj.Cost
			} else {
				same = same && math.Abs(gj.Cost-wj.Cost) <= 1e-9*math.Abs(wj.Cost)
			}
			if !same {
				t.Errorf("%s: job %d = %+v, want %+v", name, i, gj, wj)
				break
			}
		}
	}
	if len(got) != len(want) {
		t.Errorf("golden has %d configurations, test ran %d", len(want), len(got))
	}
}
