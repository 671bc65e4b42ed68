package obs_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"

	_ "repro/internal/tasks/dice"
	_ "repro/internal/tasks/gotta"
	_ "repro/internal/tasks/kge"
	_ "repro/internal/tasks/wef"
)

// collectSelf sums SelfVirt over the expanded (non-Ref) tree.
func collectSelf(roots []*obs.ProfileNode) float64 {
	var sum float64
	var walk func(n *obs.ProfileNode)
	walk = func(n *obs.ProfileNode) {
		if n.Ref {
			return
		}
		sum += n.SelfVirt
		for _, c := range n.Inputs {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return sum
}

func renderProfile(t *testing.T, task string, size int) (string, *obs.Profile) {
	t.Helper()
	p, err := obs.BuildProfile(core.RunSpec{Task: task, Size: size, Workers: 2}, false)
	if err != nil {
		t.Fatalf("BuildProfile(%s): %v", task, err)
	}
	var buf bytes.Buffer
	report.Explain(&buf, p)
	return buf.String(), p
}

// TestExplainDeterministicAndReconciled is the -explain acceptance
// test: DICE and KGE profiles render bit-identically across two
// independent runs, and the exclusive self-times plus controller and
// wait time reconstruct the virtual makespan exactly.
func TestExplainDeterministicAndReconciled(t *testing.T) {
	for _, tc := range []struct {
		task string
		size int
	}{
		{"dice", 400}, {"kge", 600},
	} {
		first, p := renderProfile(t, tc.task, tc.size)
		second, _ := renderProfile(t, tc.task, tc.size)
		if first != second {
			t.Errorf("%s: explain output differs between runs:\n--- first ---\n%s\n--- second ---\n%s", tc.task, first, second)
		}
		sum := collectSelf(p.Roots) + p.ControllerVirt + p.WaitVirt
		if diff := math.Abs(sum - p.Makespan); diff > 1e-6*math.Max(1, p.Makespan) {
			t.Errorf("%s: self times do not reconcile: Σself+controller+wait = %.9f, makespan = %.9f (diff %.3g)",
				tc.task, sum, p.Makespan, diff)
		}
		if p.Makespan <= 0 {
			t.Errorf("%s: non-positive makespan %f", tc.task, p.Makespan)
		}
		if p.Totals.Nodes == 0 {
			t.Errorf("%s: profile totals missing trace", tc.task)
		}
	}
}
