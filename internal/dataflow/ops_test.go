package dataflow

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/relation"
)

// Operator-level unit tests exercising the schema rules directly,
// without spinning up an execution.

var intSchema = relation.MustSchema(
	relation.Field{Name: "id", Type: relation.Int},
	relation.Field{Name: "v", Type: relation.Int},
)

func TestOutputSchemaArityChecks(t *testing.T) {
	ops := []Operator{
		NewFilter("f", cost.Python, func(relation.Tuple) bool { return true }),
		NewProject("p", cost.Python, "id"),
		NewMap("m", cost.Python, intSchema, nil),
		NewGroupBy("g", cost.Python, []string{"v"}, []relation.Aggregate{{Func: relation.Count, As: "n"}}),
		NewSort("s", cost.Python, "v"),
		NewLimit("l", cost.Python, 5),
	}
	for _, op := range ops {
		if _, err := op.OutputSchema(nil); err == nil {
			t.Errorf("%s: expected error for no inputs", op.Desc().Name)
		}
		if _, err := op.OutputSchema([]*relation.Schema{nil}); err == nil {
			t.Errorf("%s: expected error for nil input schema", op.Desc().Name)
		}
		if _, err := op.OutputSchema([]*relation.Schema{intSchema, intSchema}); err == nil {
			t.Errorf("%s: expected error for two inputs", op.Desc().Name)
		}
	}
	j := NewHashJoin("j", cost.Python, "id", "id", relation.Inner)
	if _, err := j.OutputSchema([]*relation.Schema{intSchema}); err == nil {
		t.Error("join: expected error for one input")
	}
	if _, err := j.OutputSchema([]*relation.Schema{intSchema, nil}); err == nil {
		t.Error("join: expected error for nil input")
	}
	u := NewUnion("u", cost.Python)
	if _, err := u.OutputSchema([]*relation.Schema{intSchema}); err == nil {
		t.Error("union: expected error for one input")
	}
}

func TestFilterSchemaPassThrough(t *testing.T) {
	f := NewFilter("f", cost.Python, func(relation.Tuple) bool { return true })
	s, err := f.OutputSchema([]*relation.Schema{intSchema})
	if err != nil || !s.Equal(intSchema) {
		t.Fatalf("filter schema: %v %v", s, err)
	}
}

func TestProjectSchemaErrors(t *testing.T) {
	p := NewProject("p", cost.Python, "missing")
	if _, err := p.OutputSchema([]*relation.Schema{intSchema}); err == nil {
		t.Fatal("expected error for unknown column")
	}
}

func TestJoinSchemaKeyErrors(t *testing.T) {
	j := NewHashJoin("j", cost.Python, "missing", "id", relation.Inner)
	if _, err := j.OutputSchema([]*relation.Schema{intSchema, intSchema}); err == nil {
		t.Fatal("expected error for unknown build key")
	}
	other := relation.MustSchema(relation.Field{Name: "id", Type: relation.String})
	j2 := NewHashJoin("j2", cost.Python, "id", "id", relation.Inner)
	if _, err := j2.OutputSchema([]*relation.Schema{other, intSchema}); err == nil {
		t.Fatal("expected error for key type mismatch")
	}
}

func TestGroupBySchemaErrors(t *testing.T) {
	g := NewGroupBy("g", cost.Python, []string{"missing"}, []relation.Aggregate{{Func: relation.Count, As: "n"}})
	if _, err := g.OutputSchema([]*relation.Schema{intSchema}); err == nil {
		t.Fatal("expected error for unknown group key")
	}
}

func TestWorkflowAccessors(t *testing.T) {
	w := New("accessors")
	if w.Name() != "accessors" {
		t.Fatalf("Name() = %q", w.Name())
	}
	src := w.Source("src", intTable(3), WithScanWork(cost.Work{Interp: 1}))
	if w.OutputSchemaOf(src) != nil {
		t.Fatal("schema should be nil before validation")
	}
	if w.OutputSchemaOf(NodeID(99)) != nil {
		t.Fatal("out-of-range node should give nil schema")
	}
	f := w.Op(NewFilter("f", cost.Python, func(relation.Tuple) bool { return true }))
	snk := w.Sink("out")
	w.Connect(src, f, 0, RoundRobin())
	w.Connect(f, snk, 0, RoundRobin())
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.OutputSchemaOf(src) == nil {
		t.Fatal("schema missing after validation")
	}
}

// TestMapRowsMatchTupleSlices holds the emit form of a UDF to what the
// form it replaced returned: ref is each UDF as it was written when a
// MapFunc returned a fresh []relation.Tuple per input row, fn the same
// UDF emitting into Rows. Batches of 0, 1 and 8 rows cover an empty
// batch, a block sized by one row and a block shared by a batch; the
// flat-maps outrun any block sized from the batch, with and without
// telling Rows their fan-out first.
func TestMapRowsMatchTupleSlices(t *testing.T) {
	cases := []struct {
		name string
		ref  func(relation.Tuple) []relation.Tuple
		fn   MapFunc
	}{
		{"one-to-one",
			func(r relation.Tuple) []relation.Tuple {
				return []relation.Tuple{{relation.IntValue(r[0].Int()), relation.IntValue(r[1].Int() * 2)}}
			},
			func(r relation.Tuple, out *Rows) error { out.Emit(r[0], relation.IntValue(r[1].Int()*2)); return nil }},
		{"selective",
			func(r relation.Tuple) []relation.Tuple {
				if r[0].Int()%3 != 0 {
					return nil
				}
				return []relation.Tuple{{relation.IntValue(r[1].Int()), relation.IntValue(r[0].Int())}}
			},
			func(r relation.Tuple, out *Rows) error {
				if r[0].Int()%3 == 0 {
					out.Emit(r[1], r[0])
				}
				return nil
			}},
		{"flat-map-40",
			func(r relation.Tuple) []relation.Tuple {
				var rows []relation.Tuple
				for k := int64(0); k < 40; k++ {
					rows = append(rows, relation.Tuple{relation.IntValue(r[0].Int()), relation.IntValue(k)})
				}
				return rows
			},
			func(r relation.Tuple, out *Rows) error {
				for k := int64(0); k < 40; k++ {
					out.Emit(r[0], relation.IntValue(k))
				}
				return nil
			}},
		{"flat-map-40-grown",
			func(r relation.Tuple) []relation.Tuple {
				rows := make([]relation.Tuple, 0, 40)
				for k := int64(0); k < 40; k++ {
					rows = append(rows, relation.Tuple{relation.IntValue(r[0].Int()), relation.IntValue(k)})
				}
				return rows
			},
			func(r relation.Tuple, out *Rows) error {
				out.Grow(40)
				for k := int64(0); k < 40; k++ {
					out.Emit(r[0], relation.IntValue(k))
				}
				return nil
			}},
	}
	for _, c := range cases {
		for _, n := range []int{0, 1, 8} {
			batch := intTable(n).Rows()
			var want []relation.Tuple
			for _, r := range batch {
				want = append(want, c.ref(r)...)
			}
			got, err := NewMap(c.name, cost.Python, intSchema, c.fn).NewInstance().Process(nopCtx{}, 0, batch)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s, %d-row batch: %d rows, the []Tuple form returned %d", c.name, n, len(got), len(want))
			}
			for i := range want {
				if !got[i].Equal(want[i]) {
					t.Fatalf("%s, %d-row batch: row %d = %v, the []Tuple form returned %v", c.name, n, i, got[i], want[i])
				}
			}
		}
	}
}

// Rows of one batch share a block. Each is cut with its capacity
// clipped, so a consumer that appends to a row it was handed gets a
// copy and cannot write into the row stored behind it.
func TestBatchRowsDoNotAlias(t *testing.T) {
	batch := intTable(8).Rows()
	project := NewProject("p", cost.Python, "v", "id").NewInstance()
	if err := project.(schemaBinder).bindSchemas([]*relation.Schema{intSchema}); err != nil {
		t.Fatal(err)
	}
	swap := NewMap("m", cost.Python, intSchema, func(r relation.Tuple, out *Rows) error {
		out.Emit(r[1], r[0])
		return nil
	}).NewInstance()
	for name, inst := range map[string]Instance{"project": project, "map": swap} {
		rows, err := inst.Process(nopCtx{}, 0, batch)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rows {
			_ = append(rows[i], relation.StringValue("overflow"))
		}
		for i, r := range rows {
			if want := (relation.Tuple{batch[i][1], batch[i][0]}); !r.Equal(want) {
				t.Fatalf("%s: row %d = %v after its neighbour was appended to, want %v", name, i, r, want)
			}
		}
	}
}
