package dataflow

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/relation"
)

// TestStressWideDeepWorkflow drives a deliberately hostile graph —
// fan-out, two parallel hash joins fed by a shared upstream, a
// parallel group-by and a union — with maximum parallelism everywhere,
// and checks the result against direct evaluation. Run with -race to
// exercise the engine's synchronization.
func TestStressWideDeepWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	const rows = 20000
	s := relation.MustSchema(
		relation.Field{Name: "k", Type: relation.Int},
		relation.Field{Name: "v", Type: relation.Int},
	)
	in := relation.NewTable(s)
	for i := 0; i < rows; i++ {
		in.AppendUnchecked(relation.Tuple{relation.IntValue(int64(i % 97)), relation.IntValue(int64(i))})
	}

	w := New("stress")
	src := w.Source("src", in, WithBatchSize(64))

	// Branch A: filter then reduce.
	fa := w.Op(NewFilter("even-v", cost.Python, func(r relation.Tuple) bool {
		return r[1].Int()%2 == 0
	}), WithParallelism(8))
	w.Connect(src, fa, 0, RoundRobin())
	ga := w.Op(NewGroupBy("sum-by-k", cost.Python, []string{"k"},
		[]relation.Aggregate{{Func: relation.Sum, Field: "v", As: "s"}}), WithParallelism(8))
	w.Connect(fa, ga, 0, HashPartition("k"))

	// Branch B: self-join of two projections of the reduced stream.
	pa := w.Op(NewMap("tag-a", cost.Python, relation.MustSchema(
		relation.Field{Name: "k", Type: relation.Int},
		relation.Field{Name: "s", Type: relation.Float},
	), func(r relation.Tuple, out *Rows) error {
		out.Emit(relation.IntValue(r[0].Int()), relation.FloatValue(r[1].Float()))
		return nil
	}), WithParallelism(4))
	w.Connect(ga, pa, 0, RoundRobin())
	pb := w.Op(NewMap("tag-b", cost.Python, relation.MustSchema(
		relation.Field{Name: "k", Type: relation.Int},
		relation.Field{Name: "t", Type: relation.Float},
	), func(r relation.Tuple, out *Rows) error {
		out.Emit(relation.IntValue(r[0].Int()), relation.FloatValue(r[1].Float()*2))
		return nil
	}), WithParallelism(4))
	w.Connect(ga, pb, 0, RoundRobin())

	j := w.Op(NewHashJoin("self-join", cost.Python, "k", "k", relation.Inner), WithParallelism(8))
	w.Connect(pa, j, 0, HashPartition("k"))
	w.Connect(pb, j, 1, HashPartition("k"))

	snk := w.Sink("out")
	w.Connect(j, snk, 0, RoundRobin())

	res, err := w.Run(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Direct evaluation of the same plan.
	filtered := relation.Filter(in, func(r relation.Tuple) bool { return r[1].Int()%2 == 0 })
	grouped, err := relation.GroupBy(filtered, []string{"k"}, []relation.Aggregate{{Func: relation.Sum, Field: "v", As: "s"}})
	if err != nil {
		t.Fatal(err)
	}
	ta, err := relation.Map(grouped, relation.MustSchema(
		relation.Field{Name: "k", Type: relation.Int},
		relation.Field{Name: "s", Type: relation.Float},
	), func(r relation.Tuple) (relation.Tuple, error) {
		return relation.Tuple{relation.IntValue(r[0].Int()), relation.FloatValue(r[1].Float())}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := relation.Map(grouped, relation.MustSchema(
		relation.Field{Name: "k", Type: relation.Int},
		relation.Field{Name: "t", Type: relation.Float},
	), func(r relation.Tuple) (relation.Tuple, error) {
		return relation.Tuple{relation.IntValue(r[0].Int()), relation.FloatValue(r[1].Float() * 2)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := relation.HashJoin(tb, ta, "k", "k", relation.Inner)
	if err != nil {
		t.Fatal(err)
	}
	// The engine joins probe (tag-b on port 1) against build (tag-a on
	// port 0): probe columns first.
	if !res.Tables["out"].EqualUnordered(want) {
		t.Fatalf("stress output mismatch: engine %d rows, direct %d rows\nengine schema: %s\ndirect schema: %s",
			res.Tables["out"].Len(), want.Len(), res.Tables["out"].Schema(), want.Schema())
	}
	if res.Tables["out"].Len() != 97 {
		t.Fatalf("expected 97 joined groups, got %d", res.Tables["out"].Len())
	}
}

// TestStressRepeatedRuns re-executes the same workflow many times to
// shake out lifecycle races (goroutine leaks would eventually fail
// queue pushes or deadlock).
func TestStressRepeatedRuns(t *testing.T) {
	in := intTable(2000)
	for i := 0; i < 25; i++ {
		w := New(fmt.Sprintf("rep-%d", i))
		src := w.Source("src", in, WithBatchSize(32))
		f := w.Op(NewFilter("f", cost.Python, func(r relation.Tuple) bool {
			return r[1].Int() < 7
		}), WithParallelism(4))
		snk := w.Sink("out")
		w.Connect(src, f, 0, RoundRobin())
		w.Connect(f, snk, 0, RoundRobin())
		res, err := w.Run(context.Background(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Tables["out"].Len() != 1400 {
			t.Fatalf("run %d: rows = %d", i, res.Tables["out"].Len())
		}
	}
}
