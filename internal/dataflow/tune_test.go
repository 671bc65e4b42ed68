package dataflow

import (
	"context"
	"testing"

	"repro/internal/cost"
	"repro/internal/relation"
)

// tuneTrace profiles a 3-stage workflow with one expensive stage.
func tuneTrace(t *testing.T) *Trace {
	t.Helper()
	in := intTable(20000)
	w := New("tune")
	src := w.Source("src", in)
	cheap := NewMap("cheap", cost.Python, in.Schema(), func(r relation.Tuple, out *Rows) error {
		out.Emit(r...)
		return nil
	})
	cheap.Work = cost.Work{Interp: 1e-3}
	a := w.Op(cheap)
	heavy := NewMap("heavy", cost.Python, in.Schema(), func(r relation.Tuple, out *Rows) error {
		out.Emit(r...)
		return nil
	})
	heavy.Work = cost.Work{Interp: 10e-3}
	b := w.Op(heavy)
	srt := w.Op(NewSort("tail-sort", cost.Python, "id"))
	snk := w.Sink("out")
	w.Connect(src, a, 0, RoundRobin())
	w.Connect(a, b, 0, RoundRobin())
	w.Connect(b, srt, 0, RoundRobin())
	w.Connect(srt, snk, 0, RoundRobin())
	res, err := w.Run(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

func TestAutoTuneImprovesAndRespectsBudget(t *testing.T) {
	tr := tuneTrace(t)
	res, err := AutoTune(tr, cost.Default(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds >= res.BaselineSeconds {
		t.Fatalf("tuning did not help: %v vs baseline %v", res.Seconds, res.BaselineSeconds)
	}
	if res.CoresUsed > 8 {
		t.Fatalf("budget exceeded: %d", res.CoresUsed)
	}
	// The expensive stage should get the lion's share.
	var heavyID, cheapID, sortID NodeID
	for _, n := range tr.Nodes {
		switch n.Name {
		case "heavy":
			heavyID = n.ID
		case "cheap":
			cheapID = n.ID
		case "tail-sort":
			sortID = n.ID
		}
	}
	if res.Workers[heavyID] <= res.Workers[cheapID] {
		t.Fatalf("tuner gave heavy=%d, cheap=%d", res.Workers[heavyID], res.Workers[cheapID])
	}
	if res.Workers[sortID] != 1 {
		t.Fatalf("sort is not parallelizable but got %d workers", res.Workers[sortID])
	}
}

func TestAutoTuneMonotoneInBudget(t *testing.T) {
	tr := tuneTrace(t)
	small, err := AutoTune(tr, cost.Default(), 4)
	if err != nil {
		t.Fatal(err)
	}
	large, err := AutoTune(tr, cost.Default(), 12)
	if err != nil {
		t.Fatal(err)
	}
	if large.Seconds > small.Seconds+1e-9 {
		t.Fatalf("larger budget produced a worse plan: %v vs %v", large.Seconds, small.Seconds)
	}
}

func TestAutoTuneRecommendationMatchesRealRun(t *testing.T) {
	// Rebuild the workflow with the tuner's worker counts: the real
	// engine's simulated time should be close to the tuner's estimate.
	in := intTable(20000)
	mk := func(heavyWorkers int) float64 {
		w := New("verify")
		src := w.Source("src", in)
		heavy := NewMap("heavy", cost.Python, in.Schema(), func(r relation.Tuple, out *Rows) error {
			out.Emit(r...)
			return nil
		})
		heavy.Work = cost.Work{Interp: 10e-3}
		b := w.Op(heavy, WithParallelism(heavyWorkers))
		snk := w.Sink("out")
		w.Connect(src, b, 0, RoundRobin())
		w.Connect(b, snk, 0, RoundRobin())
		res, err := w.Run(context.Background(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		return res.SimSeconds
	}
	base := mk(1)
	// Profile at 1 worker, tune, then actually run at the recommended
	// parallelism.
	w := New("profile")
	src := w.Source("src", in)
	heavy := NewMap("heavy", cost.Python, in.Schema(), func(r relation.Tuple, out *Rows) error {
		out.Emit(r...)
		return nil
	})
	heavy.Work = cost.Work{Interp: 10e-3}
	b := w.Op(heavy)
	snk := w.Sink("out")
	w.Connect(src, b, 0, RoundRobin())
	w.Connect(b, snk, 0, RoundRobin())
	res, err := w.Run(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := AutoTune(res.Trace, cost.Default(), 6)
	if err != nil {
		t.Fatal(err)
	}
	var heavyID NodeID
	for _, n := range res.Trace.Nodes {
		if n.Name == "heavy" {
			heavyID = n.ID
		}
	}
	real := mk(tuned.Workers[heavyID])
	if real >= base {
		t.Fatalf("recommended parallelism (%d) did not beat baseline: %v vs %v", tuned.Workers[heavyID], real, base)
	}
	rel := (real - tuned.Seconds) / real
	if rel > 0.15 || rel < -0.15 {
		t.Fatalf("tuner estimate %v deviates %.0f%% from the real run %v", tuned.Seconds, rel*100, real)
	}
}

func TestAutoTuneErrors(t *testing.T) {
	if _, err := AutoTune(nil, cost.Default(), 4); err == nil {
		t.Fatal("expected error for nil trace")
	}
	tr := tuneTrace(t)
	if _, err := AutoTune(tr, cost.Default(), 0); err == nil {
		t.Fatal("expected error for zero budget")
	}
}

func TestRetunePreservesUntouchedNodes(t *testing.T) {
	tr := tuneTrace(t)
	out := Retune(tr, map[NodeID]int{tr.Nodes[1].ID: 4})
	if out.Nodes[1].Parallelism != 4 {
		t.Fatalf("retuned parallelism = %d", out.Nodes[1].Parallelism)
	}
	if out.Nodes[0].Parallelism != tr.Nodes[0].Parallelism {
		t.Fatal("untouched node changed")
	}
	// The original trace must be unmodified.
	if tr.Nodes[1].Parallelism == 4 && tr.Nodes[1].Parallelism != out.Nodes[1].Parallelism {
		t.Fatal("retune mutated the input")
	}
}
