package relation

import "testing"

// tableOf builds a table from rows of statically known shape.
func tableOf(s *Schema, rows ...Tuple) *Table {
	t := NewTable(s)
	for _, r := range rows {
		t.MustAppend(r)
	}
	return t
}

func smallTable(t *testing.T) *Table {
	t.Helper()
	s := MustSchema(Field{"id", Int}, Field{"name", String})
	return tableOf(s,
		Tuple{IntValue(3), StringValue("c")},
		Tuple{IntValue(1), StringValue("a")},
		Tuple{IntValue(2), StringValue("b")},
	)
}

func TestAppendValidates(t *testing.T) {
	tbl := NewTable(MustSchema(Field{"id", Int}))
	if err := tbl.Append(Tuple{IntValue(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append(Tuple{StringValue("x")}); err == nil {
		t.Fatal("expected validation error")
	}
	if tbl.Len() != 1 {
		t.Fatalf("len = %d", tbl.Len())
	}
}

func TestCloneIndependence(t *testing.T) {
	a := smallTable(t)
	b := a.Clone()
	b.Row(0)[1] = StringValue("mutated")
	if a.Row(0)[1].Str() == "mutated" {
		t.Fatal("clone aliases original rows")
	}
	if !a.EqualUnordered(a.Clone()) {
		t.Fatal("clone not equal")
	}
}

func TestEqualOrderSensitive(t *testing.T) {
	a := smallTable(t)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("identical tables unequal")
	}
	b.rows[0], b.rows[1] = b.rows[1], b.rows[0]
	if a.Equal(b) {
		t.Fatal("reordered tables equal under Equal")
	}
	if !a.EqualUnordered(b) {
		t.Fatal("reordered tables unequal under EqualUnordered")
	}
}

func TestEqualUnorderedMultiset(t *testing.T) {
	s := MustSchema(Field{"x", Int})
	a := tableOf(s, Tuple{IntValue(1)}, Tuple{IntValue(1)}, Tuple{IntValue(2)})
	b := tableOf(s, Tuple{IntValue(1)}, Tuple{IntValue(2)}, Tuple{IntValue(2)})
	if a.EqualUnordered(b) {
		t.Fatal("different multisets reported equal")
	}
}

func TestBatches(t *testing.T) {
	tbl := smallTable(t)
	b := tbl.Batches(2)
	if len(b) != 2 || len(b[0].Rows) != 2 || len(b[1].Rows) != 1 {
		t.Fatalf("batches = %v", b)
	}
	if got := tbl.Batches(0); len(got) != 1 || len(got[0].Rows) != 3 {
		t.Fatal("non-positive size should give one batch")
	}
	if got := tbl.Batches(100); len(got) != 1 {
		t.Fatal("oversized batch should give one batch")
	}
	empty := NewTable(tbl.Schema())
	if got := empty.Batches(2); got != nil {
		t.Fatal("empty table should give no batches")
	}
}

func TestConcat(t *testing.T) {
	a := smallTable(t)
	b := smallTable(t)
	if err := a.Concat(b); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 6 {
		t.Fatalf("len = %d", a.Len())
	}
	other := NewTable(MustSchema(Field{"z", Float}))
	if err := a.Concat(other); err == nil {
		t.Fatal("expected schema mismatch error")
	}
}

func TestSortBy(t *testing.T) {
	tbl := smallTable(t)
	if err := tbl.SortBy("id"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if tbl.Row(i)[0].Int() != int64(i+1) {
			t.Fatalf("row %d id = %d", i, tbl.Row(i)[0].Int())
		}
	}
	if err := tbl.SortBy("name"); err != nil {
		t.Fatal(err)
	}
	if tbl.Row(0)[1].Str() != "a" {
		t.Fatal("sort by string failed")
	}
	if err := tbl.SortBy("missing"); err == nil {
		t.Fatal("expected error for unknown field")
	}
}

func TestSortByMultipleAndStability(t *testing.T) {
	s := MustSchema(Field{"g", Int}, Field{"v", String}, Field{"b", Bool}, Field{"f", Float})
	tbl := tableOf(s,
		Tuple{IntValue(2), StringValue("x"), BoolValue(true), FloatValue(1.0)},
		Tuple{IntValue(1), StringValue("y"), BoolValue(false), FloatValue(2.0)},
		Tuple{IntValue(1), StringValue("x"), BoolValue(true), FloatValue(0.5)},
		Tuple{IntValue(2), StringValue("x"), BoolValue(false), FloatValue(3.0)},
	)
	if err := tbl.SortBy("g", "v"); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		g int64
		v string
	}{{1, "x"}, {1, "y"}, {2, "x"}, {2, "x"}}
	for i, w := range want {
		if tbl.Row(i)[0].Int() != w.g || tbl.Row(i)[1].Str() != w.v {
			t.Fatalf("row %d = %v", i, tbl.Row(i))
		}
	}
	// Stability: the two (2,"x") rows keep input order (true before false).
	if !tbl.Row(2)[2].Bool() || tbl.Row(3)[2].Bool() {
		t.Fatal("sort not stable")
	}
	if err := tbl.SortBy("b"); err != nil {
		t.Fatal(err)
	}
	if tbl.Row(0)[2].Bool() {
		t.Fatal("false should sort before true")
	}
	if err := tbl.SortBy("f"); err != nil {
		t.Fatal(err)
	}
	if tbl.Row(0)[3].Float() != 0.5 {
		t.Fatal("float sort failed")
	}
}
