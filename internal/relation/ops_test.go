package relation

import (
	"bytes"
	"maps"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func usersTable(t *testing.T) *Table {
	t.Helper()
	s := MustSchema(Field{"uid", Int}, Field{"name", String})
	return tableOf(s,
		Tuple{IntValue(1), StringValue("ann")},
		Tuple{IntValue(2), StringValue("bob")},
		Tuple{IntValue(3), StringValue("cat")},
		Tuple{IntValue(4), StringValue("dan")},
	)
}

func ordersTable(t *testing.T) *Table {
	t.Helper()
	s := MustSchema(Field{"oid", Int}, Field{"uid", Int}, Field{"amt", Float})
	return tableOf(s,
		Tuple{IntValue(10), IntValue(1), FloatValue(5.0)},
		Tuple{IntValue(11), IntValue(1), FloatValue(7.0)},
		Tuple{IntValue(12), IntValue(3), FloatValue(2.0)},
		Tuple{IntValue(13), IntValue(9), FloatValue(1.0)}, // dangling uid
	)
}

func TestFilter(t *testing.T) {
	u := usersTable(t)
	out := Filter(u, func(r Tuple) bool { return r[0].Int()%2 == 0 })
	if out.Len() != 2 {
		t.Fatalf("filtered len = %d", out.Len())
	}
	for _, r := range out.Rows() {
		if r[0].Int()%2 != 0 {
			t.Fatalf("row %v escaped filter", r)
		}
	}
}

func TestProjectOp(t *testing.T) {
	u := usersTable(t)
	out, err := Project(u, "name")
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema().Len() != 1 || out.Len() != 4 {
		t.Fatalf("project shape wrong: %s, %d rows", out.Schema(), out.Len())
	}
	if out.Row(0)[0].Str() != "ann" {
		t.Fatal("project values wrong")
	}
	if _, err := Project(u, "missing"); err == nil {
		t.Fatal("expected error")
	}
}

func TestMapOp(t *testing.T) {
	u := usersTable(t)
	out, err := Map(u, MustSchema(Field{"upper", String}), func(r Tuple) (Tuple, error) {
		return Tuple{StringValue(r[1].Str() + "!")}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Row(0)[0].Str() != "ann!" {
		t.Fatal("map wrong")
	}
	// Output validation catches bad rows.
	_, err = Map(u, MustSchema(Field{"x", Int}), func(r Tuple) (Tuple, error) {
		return Tuple{StringValue("not an int")}, nil
	})
	if err == nil {
		t.Fatal("expected validation error")
	}
}

func TestHashJoinInner(t *testing.T) {
	u := usersTable(t)
	o := ordersTable(t)
	out, err := HashJoin(o, u, "uid", "uid", Inner)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("inner join len = %d, want 3", out.Len())
	}
	// Schema: oid, uid, amt, name.
	if out.Schema().String() != "oid:int, uid:int, amt:float, name:string" {
		t.Fatalf("schema = %s", out.Schema())
	}
	if out.Row(0)[3].Str() != "ann" {
		t.Fatalf("first joined row = %v", out.Row(0))
	}
}

func TestHashJoinLeftOuter(t *testing.T) {
	u := usersTable(t)
	o := ordersTable(t)
	out, err := HashJoin(o, u, "uid", "uid", LeftOuter)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 {
		t.Fatalf("left outer join len = %d, want 4", out.Len())
	}
	last := out.Row(3)
	if last[1].Int() != 9 || last[3].Str() != "" {
		t.Fatalf("unmatched row = %v", last)
	}
}

func TestHashJoinErrors(t *testing.T) {
	u := usersTable(t)
	o := ordersTable(t)
	if _, err := HashJoin(o, u, "nope", "uid", Inner); err == nil {
		t.Fatal("expected unknown left key error")
	}
	if _, err := HashJoin(o, u, "uid", "nope", Inner); err == nil {
		t.Fatal("expected unknown right key error")
	}
	if _, err := HashJoin(o, u, "amt", "uid", Inner); err == nil {
		t.Fatal("expected key type mismatch error")
	}
}

func randomJoinTables(seed uint64) (*Table, *Table) {
	r := xrand.New(seed)
	ls := MustSchema(Field{"k", Int}, Field{"lv", String})
	rs := MustSchema(Field{"k", Int}, Field{"rv", Float})
	left := NewTable(ls)
	right := NewTable(rs)
	nl, nr := r.Intn(30), r.Intn(30)
	for i := 0; i < nl; i++ {
		left.AppendUnchecked(Tuple{IntValue(int64(r.Intn(10))), StringValue("l")})
	}
	for i := 0; i < nr; i++ {
		right.AppendUnchecked(Tuple{IntValue(int64(r.Intn(10))), FloatValue(r.Float64())})
	}
	return left, right
}

func TestPropertyHashJoinMatchesNestedLoop(t *testing.T) {
	f := func(seed uint64) bool {
		left, right := randomJoinTables(seed)
		for _, kind := range []JoinType{Inner, LeftOuter} {
			h, err := HashJoin(left, right, "k", "k", kind)
			if err != nil {
				return false
			}
			n, err := NestedLoopJoin(left, right, "k", "k", kind)
			if err != nil {
				return false
			}
			if !h.EqualUnordered(n) {
				return false
			}
			// HashJoin must produce the reference joiner's result — not
			// just the same multiset, the exact same row order.
			ref, err := refNewJoiner(left.Schema(), right, "k", "k", kind, 1)
			if err != nil {
				return false
			}
			want := NewTable(h.Schema())
			want.rows = ref.ProbeRows(nil, left.Rows())
			if !h.Equal(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestJoinerShardCountDeterministic pins the one-map index's ordering
// contract against the hash-partitioned reference it replaced: at every
// reference shard count, on a build side large enough to take the
// reference's parallel build, the Joiner (through HashJoin, which
// probes with ProbeRows) yields the reference's rows in its order
// (asserted via ordered Equal and the serde digest).
func TestJoinerShardCountDeterministic(t *testing.T) {
	ls := MustSchema(Field{"k", Int}, Field{"lv", String})
	rs := MustSchema(Field{"k", Int}, Field{"rv", Float})
	left, right := NewTable(ls), NewTable(rs)
	for i := 0; i < 5000; i++ {
		left.AppendUnchecked(Tuple{IntValue(int64(i % 700)), StringValue("l")})
		right.AppendUnchecked(Tuple{IntValue(int64(i % 900)), FloatValue(float64(i))})
	}
	for _, kind := range []JoinType{Inner, LeftOuter} {
		got, err := HashJoin(left, right, "k", "k", kind)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 3, 8, 32} {
			ref, err := refNewJoiner(ls, right, "k", "k", kind, shards)
			if err != nil {
				t.Fatal(err)
			}
			want := NewTable(got.Schema())
			want.rows = ref.ProbeRows(nil, left.Rows())
			if !got.Equal(want) {
				t.Fatalf("kind=%v shards=%d: row order differs from the reference", kind, shards)
			}
			if g, w := Digest(got), Digest(want); g != w {
				t.Fatalf("kind=%v shards=%d: digest %#x, want %#x", kind, shards, g, w)
			}
		}
	}
}

// TestEqualUnorderedMatchesKeyStringReference holds the uint64-hash
// EqualUnordered to the canonical key-string multiset semantics it
// replaced, on tables whose duplicates include NaN, -0 and +0 (every
// NaN is one value; the two zeros are not).
func TestEqualUnorderedMatchesKeyStringReference(t *testing.T) {
	// fuzzTable rows: byte 1 picks the float (0 NaN, 1 -0, 2 +0, 3 +Inf).
	data := bytes.Repeat([]byte{0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 5, 3, 1, 1, 5, 9, 2, 0}, 3)
	// Drop the near-unique column so the repeats are duplicates.
	tbl, err := Project(fuzzTable(data), "k", "f", "s", "b")
	if err != nil {
		t.Fatal(err)
	}
	keys := func(t *Table) map[string]int {
		m := make(map[string]int)
		for _, r := range t.Rows() {
			m[r.Key(0, 1, 2, 3)]++
		}
		return m
	}
	reversed := func(t *Table) *Table {
		out := NewTable(t.Schema())
		for i := t.Len() - 1; i >= 0; i-- {
			out.AppendUnchecked(t.Row(i))
		}
		return out
	}
	// The first occurrence of each key, by key string.
	firsts := NewTable(tbl.Schema())
	seen := make(map[string]bool)
	for _, r := range tbl.Rows() {
		if k := r.Key(0, 1, 2, 3); !seen[k] {
			seen[k] = true
			firsts.AppendUnchecked(r)
		}
	}
	if firsts.Len() != 5 {
		t.Fatalf("%d distinct keys in %d rows, want 5", firsts.Len(), tbl.Len())
	}
	tables := []*Table{tbl, reversed(tbl), firsts, reversed(firsts)}
	for i, a := range tables {
		for j, b := range tables {
			want := maps.Equal(keys(a), keys(b))
			if got := a.EqualUnordered(b); got != want {
				t.Errorf("tables %d and %d: EqualUnordered = %v, key-string multisets equal = %v", i, j, got, want)
			}
		}
	}
}

func TestGroupBy(t *testing.T) {
	o := ordersTable(t)
	out, err := GroupBy(o, []string{"uid"}, []Aggregate{
		{Func: Count, As: "n"},
		{Func: Sum, Field: "amt", As: "total"},
		{Func: Avg, Field: "amt", As: "mean"},
		{Func: Min, Field: "amt", As: "lo"},
		{Func: Max, Field: "amt", As: "hi"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("groups = %d, want 3", out.Len())
	}
	// First group is uid=1 with two orders of 5 and 7.
	g := out.Row(0)
	if g[0].Int() != 1 || g[1].Int() != 2 || g[2].Float() != 12 || g[3].Float() != 6 || g[4].Float() != 5 || g[5].Float() != 7 {
		t.Fatalf("group row = %v", g)
	}
}

func TestGroupByErrors(t *testing.T) {
	o := ordersTable(t)
	if _, err := GroupBy(o, []string{"zzz"}, nil); err == nil {
		t.Fatal("expected unknown key error")
	}
	if _, err := GroupBy(o, []string{"uid"}, []Aggregate{{Func: Sum, Field: "zzz", As: "s"}}); err == nil {
		t.Fatal("expected unknown field error")
	}
	if _, err := GroupBy(o, []string{"uid"}, []Aggregate{{Func: Sum, Field: "amt", As: ""}}); err == nil {
		t.Fatal("expected empty output name error")
	}
	withStr := usersTable(t)
	if _, err := GroupBy(withStr, []string{"uid"}, []Aggregate{{Func: Sum, Field: "name", As: "s"}}); err == nil {
		t.Fatal("expected non-numeric field error")
	}
}

func TestPropertyGroupByCountsSumToTotal(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		s := MustSchema(Field{"g", Int}, Field{"v", Float})
		tbl := NewTable(s)
		n := r.Intn(100)
		for i := 0; i < n; i++ {
			tbl.AppendUnchecked(Tuple{IntValue(int64(r.Intn(7))), FloatValue(r.Float64())})
		}
		out, err := GroupBy(tbl, []string{"g"}, []Aggregate{{Func: Count, As: "n"}})
		if err != nil {
			return false
		}
		var total int64
		for _, row := range out.Rows() {
			total += row[1].Int()
		}
		return total == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
