package dataflow

import (
	"context"
	"testing"

	"repro/internal/cost"
	"repro/internal/relation"
)

func TestUnionMergesStreams(t *testing.T) {
	a := intTable(100)
	b := intTable(50)
	w := New("union")
	sa := w.Source("a", a)
	sb := w.Source("b", b)
	u := w.Op(NewUnion("merge", cost.Python))
	snk := w.Sink("out")
	w.Connect(sa, u, 0, RoundRobin())
	w.Connect(sb, u, 1, RoundRobin())
	w.Connect(u, snk, 0, RoundRobin())

	res, err := w.Run(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tables["out"].Len() != 150 {
		t.Fatalf("union rows = %d", res.Tables["out"].Len())
	}
	want := a.Clone()
	if err := want.Concat(b); err != nil {
		t.Fatal(err)
	}
	if !res.Tables["out"].EqualUnordered(want) {
		t.Fatal("union output mismatch")
	}
}

func TestUnionSchemaMismatch(t *testing.T) {
	other := relation.NewTable(relation.MustSchema(relation.Field{Name: "z", Type: relation.Float}))
	other.MustAppend(relation.Tuple{relation.FloatValue(1.5)})
	w := New("union-bad")
	sa := w.Source("a", intTable(5))
	sb := w.Source("b", other)
	u := w.Op(NewUnion("merge", cost.Python))
	snk := w.Sink("out")
	w.Connect(sa, u, 0, RoundRobin())
	w.Connect(sb, u, 1, RoundRobin())
	w.Connect(u, snk, 0, RoundRobin())
	if err := w.Validate(); err == nil {
		t.Fatal("expected schema mismatch error")
	}
}

func TestUnionParallel(t *testing.T) {
	a := intTable(200)
	b := intTable(200)
	w := New("union-par")
	sa := w.Source("a", a)
	sb := w.Source("b", b)
	u := w.Op(NewUnion("merge", cost.Python), WithParallelism(3))
	snk := w.Sink("out")
	w.Connect(sa, u, 0, RoundRobin())
	w.Connect(sb, u, 1, RoundRobin())
	w.Connect(u, snk, 0, RoundRobin())

	res, err := w.Run(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tables["out"].Len() != 400 {
		t.Fatalf("parallel union rows = %d", res.Tables["out"].Len())
	}
}
