package dataflow

import (
	"math/bits"
	"slices"
	"sync"
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
	f := w.Op(NewFilter("f", cost.Python, func(relation.Tuple) bool { return true }))
	snk := w.Sink("out")
	w.Connect(src, f, 0, RoundRobin())
	w.Connect(f, snk, 0, RoundRobin())
	if err := w.Validate(); err != nil {
		t.Fatal(err)
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
			got, err := newInstance(t, NewMap(c.name, cost.Python, intSchema, c.fn)).Process(&nopCtx{}, 0, batch)
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

// An operator instance, a hash splitter and a join carve the batches of
// their whole run from shared chunks, each batch and each row cut with
// its capacity clipped. So a consumer that appends to a batch or to a row it
// was handed gets a copy: every batch of one instance stays as it was
// whichever other batch, or row of it, is appended to. Forty batches
// take the arenas past the point where a chunk (an eighth of what the
// arena, or its source, has made) holds several, so neighbours share
// one. The instances run twice: on arenas of their own, and on arenas
// drawn from one source, as the executor draws its workers'.
func TestBatchRowsDoNotAlias(t *testing.T) {
	for _, name := range []string{"own", "sourced"} {
		t.Run(name, func(t *testing.T) { testBatchRowsDoNotAlias(t, name == "sourced") })
	}
}

func testBatchRowsDoNotAlias(t *testing.T, sourced bool) {
	const batches = 40
	in := intTable(16).Rows()
	input := func(k int) []relation.Tuple { return in[8*(k%2) : 8*(k%2)+8] }
	var src relation.ArenaSource
	processor := func(inst Instance, port int, batch func(k int) []relation.Tuple) func(k int) []relation.Tuple {
		ec := &nopCtx{}
		if sourced {
			ec.out = src.Arena()
		}
		return func(k int) []relation.Tuple {
			out, err := inst.Process(ec, port, batch(k))
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
	}
	cond, err := parseCondition("v != 3")
	if err != nil {
		t.Fatal(err)
	}
	plainJoin, swappedJoin, users, orders := swapJoinInstances(t)
	var split hashSplitter
	if sourced {
		split.out = src.Arena()
	}
	// An executor worker splits what its instance emitted in the arena
	// the instance carved it from.
	worker := microCtx()
	if sourced {
		worker.split.out = src.Arena()
	}
	swapMap := newInstance(t, NewMap("m", cost.Python, intSchema, func(r relation.Tuple, out *Rows) error {
		out.Emit(r[1], r[0])
		return nil
	}), intSchema)
	users2 := func(k int) []relation.Tuple { return users.Rows()[8*(k%6) : 8*(k%6)+8] }
	orders2 := func(k int) []relation.Tuple { return orders.Rows()[8*(k%6) : 8*(k%6)+8] }

	for _, c := range []struct {
		name  string
		batch func(k int) []relation.Tuple
	}{
		{"project", processor(newInstance(t, NewProject("p", cost.Python, "v", "id"), intSchema), 0, input)},
		{"map", processor(newInstance(t, NewMap("m", cost.Python, intSchema, func(r relation.Tuple, out *Rows) error {
			out.Emit(r[1], r[0])
			return nil
		}), intSchema), 0, input)},
		{"flat-map", processor(newInstance(t, NewMap("m", cost.Python, intSchema, func(r relation.Tuple, out *Rows) error {
			for k := int64(0); k < 3; k++ {
				out.Emit(r[0], relation.IntValue(k))
			}
			return nil
		}), intSchema), 0, input)},
		{"filter", processor(newInstance(t, NewFilter("f", cost.Python, func(r relation.Tuple) bool { return r[0].Int()%3 != 0 }), intSchema), 0, input)},
		{"cond-filter", processor(newInstance(t, &condFilterOp{cond: cond}, intSchema), 0, input)},
		{"join", processor(plainJoin, 1, users2)},
		{"swapped-join", processor(swappedJoin, 1, orders2)},
		{"router", func(k int) []relation.Tuple {
			placed, _ := split.by(input(k), 0, 3)
			return placed
		}},
		{"map-then-split", func(k int) []relation.Tuple {
			out, err := swapMap.Process(worker, 0, input(k))
			if err != nil {
				t.Fatal(err)
			}
			placed, _ := worker.split.by(out, 0, 3)
			return placed
		}},
	} {
		var out, was [batches][]relation.Tuple
		for k := range out {
			if out[k] = c.batch(k); len(out[k]) == 0 {
				t.Fatalf("%s: batch %d is empty", c.name, k)
			}
			was[k] = clone(out[k])
		}
		for k, b := range out {
			_ = append(b, relation.Tuple{relation.StringValue("overflow")})
			for i := range b {
				_ = append(b[i], relation.StringValue("overflow"))
			}
			for j, got := range out {
				for i := range got {
					if !got[i].Equal(was[j][i]) {
						t.Fatalf("%s: appending to batch %d and its rows changed row %d of batch %d: %v, was %v", c.name, k, i, j, got[i], was[j][i])
					}
				}
			}
		}
	}
}

// keepRows hands on a batch it keeps whole as it is, returns nil for a
// batch it keeps nothing of, and copies the survivors of a mixed batch,
// in order, whether the first row is kept or not.
func TestKeepRows(t *testing.T) {
	rows := intTable(10).Rows()
	ids := func(rows []relation.Tuple) []int64 {
		out := []int64{}
		for _, r := range rows {
			out = append(out, r[0].Int())
		}
		return out
	}
	var out relation.Arena
	if got := keepRows(&out, rows, func(relation.Tuple) bool { return true }); len(got) != len(rows) || &got[0] != &rows[0] {
		t.Fatalf("an all-kept batch came back as a copy of %d rows", len(got))
	}
	if got := keepRows(&out, rows, func(relation.Tuple) bool { return false }); got != nil {
		t.Fatalf("an all-rejected batch gave %v, want nil", ids(got))
	}
	for _, c := range []struct {
		name string
		keep relation.Predicate
		want []int64
	}{
		{"kept prefix", func(r relation.Tuple) bool { return r[0].Int() < 3 || r[0].Int() == 7 }, []int64{0, 1, 2, 7}},
		{"rejected head", func(r relation.Tuple) bool { return r[0].Int()%3 == 2 }, []int64{2, 5, 8}},
	} {
		got := keepRows(&out, rows, c.keep)
		if !slices.Equal(ids(got), c.want) {
			t.Fatalf("%s: kept %v, want %v", c.name, ids(got), c.want)
		}
		if &got[0] == &rows[c.want[0]] {
			t.Fatalf("%s: a mixed batch aliases its input", c.name)
		}
	}
}

func clone(rows []relation.Tuple) []relation.Tuple {
	out := make([]relation.Tuple, len(rows))
	for i, r := range rows {
		out[i] = slices.Clone(r)
	}
	return out
}

// A flat-map that emits n rows from one input row moves its batch to a
// chunk at least twice as large each time it outgrows one, so it costs
// O(log n) chunks, not one per row and not O(n) copies — on an arena of
// its own and on one drawn from a source, which then carves each chunk.
func TestFlatMapChunksGrowGeometrically(t *testing.T) {
	const n = 100_000
	op := NewMap("explode", cost.Python, intSchema, func(r relation.Tuple, out *Rows) error {
		for k := int64(0); k < n; k++ {
			out.Emit(r[0], relation.IntValue(k))
		}
		return nil
	})
	batch, in := intTable(1).Rows(), []*relation.Schema{intSchema}
	for _, sourced := range []bool{false, true} {
		var rows []relation.Tuple
		allocs := testing.AllocsPerRun(3, func() {
			ec := &nopCtx{}
			if sourced {
				ec.out = new(relation.ArenaSource).Arena()
			}
			inst, err := op.NewInstance(ec, in)
			if err != nil {
				t.Fatal(err)
			}
			if rows, err = inst.Process(ec, 0, batch); err != nil {
				t.Fatal(err)
			}
		})
		if len(rows) != n || rows[n-1][1].Int() != n-1 {
			t.Fatalf("sourced %v: flat-map emitted %d rows", sourced, len(rows))
		}
		// A fresh instance and context each run (two objects, three with
		// a source), so every run starts from no chunks; then two chunk
		// kinds, tuples and cells, each doubling from one row: 18 chunks
		// each at n = 100,000.
		fresh := 2
		if sourced {
			fresh = 3
		}
		t.Logf("sourced %v: a %d-row flat-map allocated %v objects", sourced, n, allocs)
		if limit := fresh + 2*(bits.Len(n)+2); allocs > float64(limit) {
			t.Fatalf("sourced %v: a %d-row flat-map allocated %v objects, want at most %d", sourced, n, allocs, limit)
		}
	}
}

// A join is planned once per operator: every instance, made on its own
// goroutine, fused with a filter or not, probes with the plan the
// operator holds, and OutputSchema hands out that plan's schema.
func TestJoinInstancesShareOnePlan(t *testing.T) {
	users, orders := joinInputs()
	in := []*relation.Schema{users.Schema(), orders.Schema()}
	join := NewHashJoin("join", cost.Python, "uid", "uid", relation.Inner)
	fused := &FusedOp{A: join, B: NewFilter("keep", cost.Python, func(relation.Tuple) bool { return true })}
	insts := make([]Instance, 8)
	var wg sync.WaitGroup
	for i := range insts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			op := Operator(join)
			if i%2 == 1 {
				op = fused
			}
			ec := &nopCtx{}
			inst, err := op.NewInstance(ec, in)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := inst.Process(ec, 0, users.Rows()); err != nil {
				t.Error(err)
				return
			}
			if _, err := inst.EndPort(ec, 0); err != nil {
				t.Error(err)
				return
			}
			insts[i] = inst
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	schema, err := join.OutputSchema(in)
	if err != nil {
		t.Fatal(err)
	}
	for i, inst := range insts {
		ji, ok := inst.(*joinInstance)
		if !ok {
			ji = inst.(*fusedInstance).a.(*joinInstance)
		}
		if ji.plan != join.plan || ji.joiner.OutputSchema() != join.plan.Schema() {
			t.Fatalf("instance %d probes with plan %p, the operator holds %p", i, ji.plan, join.plan)
		}
	}
	if schema != join.plan.Schema() {
		t.Fatal("OutputSchema is not the plan's schema")
	}
	if again, _ := join.OutputSchema(in); again != schema {
		t.Fatal("a second OutputSchema call planned the join again")
	}
}

// TestJoinInstanceAllocBudget bounds the heap objects one join instance
// allocates from NewInstance through EndPort(0), its build side sent as
// one batch, as three and as fifty, one row each: the instance keeps the
// batches it is sent (a lone one is indexed in place, several are
// copied once) and the index is one []int32. Fifty batches outgrow the
// eight-batch inline list and grow it twice, fourfold each time. With a
// table of its own, regrown row by row, and a map index, an instance
// took 16 objects for each of the three.
func TestJoinInstanceAllocBudget(t *testing.T) {
	users, orders := joinInputs()
	join := NewHashJoin("join", cost.Python, "uid", "uid", relation.Inner)
	in := []*relation.Schema{users.Schema(), orders.Schema()}
	for _, c := range []struct {
		parts  int
		budget float64
	}{{1, 2}, {3, 3}, {50, 5}} {
		rows := users.Rows()
		batches := make([][]relation.Tuple, c.parts)
		for p := range batches {
			batches[p] = rows[p*len(rows)/c.parts : (p+1)*len(rows)/c.parts]
		}
		ec := &nopCtx{}
		got := testing.AllocsPerRun(20, func() {
			inst, err := join.NewInstance(ec, in)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range batches {
				if _, err := inst.Process(ec, 0, b); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := inst.EndPort(ec, 0); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("build side in %d batches: %v objects", c.parts, got)
		if got > c.budget {
			t.Errorf("a join instance built over %d batches allocated %v objects, budget %v", c.parts, got, c.budget)
		}
	}
}
