package dataflow

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/relation"
	"repro/internal/relation/reltest"
)

// swapChain builds src -> wide -> narrow -> sink, all round-robin.
func swapChain() (*Workflow, NodeID, NodeID) {
	w := New("swapchain")
	src := w.Source("src", intTable(400))
	a := w.Op(NewFilter("wide", cost.Python, func(r relation.Tuple) bool { return r[1].Int() < 9 }))
	b := w.Op(NewFilter("narrow", cost.Python, func(r relation.Tuple) bool { return r[1].Int()%2 == 0 }))
	snk := w.Sink("out")
	w.Connect(src, a, 0, RoundRobin())
	w.Connect(a, b, 0, RoundRobin())
	w.Connect(b, snk, 0, RoundRobin())
	return w, a, b
}

func TestSwapAdjacentUnaryPreservesOutput(t *testing.T) {
	plain, _, _ := swapChain()
	swapped, a, b := swapChain()
	if err := swapped.SwapAdjacentUnary(a, b); err != nil {
		t.Fatalf("SwapAdjacentUnary: %v", err)
	}
	resPlain := runSimple(t, plain)
	resSwap := runSimple(t, swapped)
	if !resPlain.Tables["out"].Equal(resSwap.Tables["out"]) {
		t.Fatal("swapping commuting filters changed the output")
	}
}

func TestSwapAdjacentUnaryRejectsPartitionedEdges(t *testing.T) {
	w := New("swapbad")
	src := w.Source("src", intTable(100))
	a := w.Op(NewFilter("a", cost.Python, func(r relation.Tuple) bool { return true }))
	b := w.Op(NewFilter("b", cost.Python, func(r relation.Tuple) bool { return true }), WithParallelism(2))
	snk := w.Sink("out")
	w.Connect(src, a, 0, RoundRobin())
	w.Connect(a, b, 0, HashPartition("v"))
	w.Connect(b, snk, 0, RoundRobin())
	if err := w.SwapAdjacentUnary(a, b); err == nil {
		t.Fatal("SwapAdjacentUnary accepted a hash-partitioned edge")
	}
}

func TestSwapJoinInputsKeepsSchemaAndRows(t *testing.T) {
	users, orders := joinInputs()
	build := func() (*Workflow, NodeID) {
		w := New("joinswap")
		u := w.Source("users", users)
		o := w.Source("orders", orders)
		j := w.Op(NewHashJoin("join", cost.Python, "uid", "uid", relation.Inner))
		snk := w.Sink("out")
		// Mis-shaped on purpose: big orders table is the build side.
		w.Connect(o, j, 0, RoundRobin())
		w.Connect(u, j, 1, RoundRobin())
		w.Connect(j, snk, 0, RoundRobin())
		return w, j
	}
	plain, _ := build()
	swapped, j := build()
	if err := swapped.SwapJoinInputs(j); err != nil {
		t.Fatalf("SwapJoinInputs: %v", err)
	}
	resPlain := runSimple(t, plain)
	resSwap := runSimple(t, swapped)
	po, so := resPlain.Tables["out"], resSwap.Tables["out"]
	if !po.Schema().Equal(so.Schema()) {
		t.Fatalf("schema changed: %v vs %v", po.Schema(), so.Schema())
	}
	if !reltest.EqualUnordered(po, so) {
		t.Fatal("swapped join rows differ from the original join")
	}
}

// nopCtx is the ExecCtx of a direct Process call: one worker, work
// discarded, and an output arena with no source unless the test draws
// it from one.
type nopCtx struct{ out relation.Arena }

func (*nopCtx) AddWork(cost.Work)      {}
func (c *nopCtx) Out() *relation.Arena { return &c.out }

// newInstance makes one worker's instance of op for the input schemas
// in, as the executor does, under a context that charges nothing.
func newInstance(t *testing.T, op Operator, in ...*relation.Schema) Instance {
	t.Helper()
	inst, err := op.NewInstance(&nopCtx{}, in)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// A swapped join re-orders the rows ProbeRows hands it in place: the
// output matches the unswapped join row for row (1:1 keys in one order
// on both sides, so probe order is the same either way) and a probe
// batch costs no allocation the unswapped join does not pay.
func TestSwapJoinPermutesInPlace(t *testing.T) {
	plain, swapped, users, orders := swapJoinInstances(t)

	plainCtx, swapCtx := &nopCtx{}, &nopCtx{}
	want, err := plain.Process(plainCtx, 1, users.Rows())
	if err != nil {
		t.Fatal(err)
	}
	got, err := swapped.Process(swapCtx, 1, orders.Rows())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(want) != users.Len() {
		t.Fatalf("swapped join emitted %d rows, unswapped %d, want %d", len(got), len(want), users.Len())
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("row %d: swapped %v, unswapped %v", i, got[i], want[i])
		}
	}

	batch := 8
	plainAllocs := testing.AllocsPerRun(50, func() { plain.Process(plainCtx, 1, users.Rows()[:batch]) })
	swapAllocs := testing.AllocsPerRun(50, func() { swapped.Process(swapCtx, 1, orders.Rows()[:batch]) })
	if swapAllocs != plainAllocs {
		t.Fatalf("swapped Process allocates %v per %d-row batch, unswapped %v", swapAllocs, batch, plainAllocs)
	}
}

// swapJoinInstances opens one worker each of a users-orders join
// (orders build, users probe, 1:1 keys) and of the same join swapped by
// SwapJoinInputs, each fed its whole build side.
func swapJoinInstances(t *testing.T) (plain, swapped Instance, users, orders *relation.Table) {
	t.Helper()
	users, _ = joinInputs()
	orders = relation.NewTable(relation.MustSchema(
		relation.Field{Name: "oid", Type: relation.Int}, relation.Field{Name: "uid", Type: relation.Int}))
	for i := 0; i < users.Len(); i++ {
		orders.AppendUnchecked(relation.Tuple{relation.IntValue(int64(1000 + i)), relation.IntValue(int64(i))})
	}
	build := func() (*Workflow, NodeID) {
		w := New("joinswap")
		u := w.Source("users", users)
		o := w.Source("orders", orders)
		j := w.Op(NewHashJoin("join", cost.Python, "uid", "uid", relation.Inner))
		snk := w.Sink("out")
		w.Connect(o, j, 0, RoundRobin())
		w.Connect(u, j, 1, RoundRobin())
		w.Connect(j, snk, 0, RoundRobin())
		return w, j
	}
	// instance makes one worker of the join and feeds it its build side.
	instance := func(w *Workflow, j NodeID, buildSide *relation.Table, probe *relation.Schema) Instance {
		inst := newInstance(t, w.nodeAt(j).op, buildSide.Schema(), probe)
		if _, err := inst.Process(&nopCtx{}, 0, buildSide.Rows()); err != nil {
			t.Fatal(err)
		}
		if _, err := inst.EndPort(&nopCtx{}, 0); err != nil {
			t.Fatal(err)
		}
		return inst
	}
	plainW, j := build()
	swapW, _ := build()
	if err := swapW.SwapJoinInputs(j); err != nil {
		t.Fatal(err)
	}
	return instance(plainW, j, orders, users.Schema()), instance(swapW, j, users, orders.Schema()), users, orders
}

func TestSwapJoinInputsRejectsOuterJoin(t *testing.T) {
	users, orders := joinInputs()
	w := New("outer")
	u := w.Source("users", users)
	o := w.Source("orders", orders)
	j := w.Op(NewHashJoin("join", cost.Python, "uid", "uid", relation.LeftOuter))
	snk := w.Sink("out")
	w.Connect(o, j, 0, RoundRobin())
	w.Connect(u, j, 1, RoundRobin())
	w.Connect(j, snk, 0, RoundRobin())
	if err := w.SwapJoinInputs(j); err == nil {
		t.Fatal("SwapJoinInputs accepted a left-outer join")
	}
}

func TestFusePreservesOutputAndCollapsesNode(t *testing.T) {
	outSchema := relation.MustSchema(relation.Field{Name: "double", Type: relation.Int})
	build := func() (*Workflow, NodeID, NodeID) {
		w := New("fusetest")
		src := w.Source("src", intTable(300))
		f := w.Op(NewFilter("keep", cost.Python, func(r relation.Tuple) bool { return r[1].Int()%3 == 0 }))
		m := w.Op(NewMap("double", cost.Python, outSchema, func(r relation.Tuple, out *Rows) error {
			out.Emit(relation.IntValue(r[1].Int() * 2))
			return nil
		}))
		snk := w.Sink("out")
		w.Connect(src, f, 0, RoundRobin())
		w.Connect(f, m, 0, RoundRobin())
		w.Connect(m, snk, 0, RoundRobin())
		return w, f, m
	}
	plain, _, _ := build()
	fused, f, m := build()
	if err := fused.Fuse(f, m); err != nil {
		t.Fatalf("Fuse: %v", err)
	}
	if got, want := fused.NumOperators(), plain.NumOperators()-1; got != want {
		t.Fatalf("operators after fusion = %d, want %d", got, want)
	}
	resPlain := runSimple(t, plain)
	resFused := runSimple(t, fused)
	if !resPlain.Tables["out"].Equal(resFused.Tables["out"]) {
		t.Fatal("fusion changed the output")
	}
}

func TestFuseBlockingTail(t *testing.T) {
	// A stateless map fused into a blocking sort: EndPort must flush the
	// sort through the map exactly once.
	outSchema := relation.MustSchema(relation.Field{Name: "v2", Type: relation.Int})
	build := func() (*Workflow, NodeID, NodeID) {
		w := New("fuseblock")
		src := w.Source("src", intTable(200))
		s := w.Op(NewSort("sort", cost.Python, "v"))
		m := w.Op(NewMap("shift", cost.Python, outSchema, func(r relation.Tuple, out *Rows) error {
			out.Emit(relation.IntValue(r[1].Int() + 1))
			return nil
		}))
		snk := w.Sink("out")
		w.Connect(src, s, 0, RoundRobin())
		w.Connect(s, m, 0, RoundRobin())
		w.Connect(m, snk, 0, RoundRobin())
		return w, s, m
	}
	plain, _, _ := build()
	fused, s, m := build()
	if err := fused.Fuse(s, m); err != nil {
		t.Fatalf("Fuse: %v", err)
	}
	resPlain := runSimple(t, plain)
	resFused := runSimple(t, fused)
	if !resPlain.Tables["out"].Equal(resFused.Tables["out"]) {
		t.Fatal("fusing into a blocking upstream changed the output")
	}
}

func TestFuseRejectsBranchingProducer(t *testing.T) {
	w := New("branch")
	src := w.Source("src", intTable(100))
	a := w.Op(NewFilter("a", cost.Python, func(r relation.Tuple) bool { return true }))
	b := w.Op(NewFilter("b", cost.Python, func(r relation.Tuple) bool { return true }))
	c := w.Op(NewFilter("c", cost.Python, func(r relation.Tuple) bool { return true }))
	s1 := w.Sink("out1")
	s2 := w.Sink("out2")
	w.Connect(src, a, 0, RoundRobin())
	w.Connect(a, b, 0, RoundRobin())
	w.Connect(a, c, 0, RoundRobin())
	w.Connect(b, s1, 0, RoundRobin())
	w.Connect(c, s2, 0, RoundRobin())
	if err := w.Fuse(a, b); err == nil {
		t.Fatal("Fuse accepted a producer with two consumers")
	}
}

func TestSetEdgePartitioningBroadcastBuild(t *testing.T) {
	users, orders := joinInputs()
	w := New("repart")
	u := w.Source("users", users)
	o := w.Source("orders", orders)
	j := w.Op(NewHashJoin("join", cost.Python, "uid", "uid", relation.Inner), WithParallelism(4))
	snk := w.Sink("out")
	w.Connect(u, j, 0, HashPartition("uid"))
	w.Connect(o, j, 1, HashPartition("uid"))
	w.Connect(j, snk, 0, RoundRobin())
	if err := w.SetEdgePartitioning(j, 0, Broadcast()); err != nil {
		t.Fatalf("SetEdgePartitioning: %v", err)
	}
	if err := w.SetEdgePartitioning(j, 1, RoundRobin()); err != nil {
		t.Fatalf("SetEdgePartitioning: %v", err)
	}
	res := runSimple(t, w)
	if !reltest.EqualUnordered(res.Tables["out"], joinOracle(t, users, orders)) {
		t.Fatal("broadcast-build rewrite changed the join output")
	}
}

func TestValidateAllowsRoundRobinProbeUnderBroadcastBuild(t *testing.T) {
	users, orders := joinInputs()
	w := New("wf006")
	u := w.Source("users", users)
	o := w.Source("orders", orders)
	j := w.Op(NewHashJoin("join", cost.Python, "uid", "uid", relation.Inner), WithParallelism(4))
	snk := w.Sink("out")
	w.Connect(u, j, 0, Broadcast())
	w.Connect(o, j, 1, RoundRobin())
	w.Connect(j, snk, 0, RoundRobin())
	if err := w.Validate(); err != nil {
		t.Fatalf("Validate rejected broadcast-build + round-robin probe: %v", err)
	}
	if diags := Validate(w); len(diags) > 0 {
		t.Fatalf("standalone Validate rejected it too: %v", diags)
	}
}

func TestSortDiagsOrdersByRuleThenNode(t *testing.T) {
	diags := []Diag{
		{Rule: "WF006", ID: 4, Node: "join", Msg: "b"},
		{Rule: "WF001", ID: 7, Node: "z", Msg: "a"},
		{Rule: "WF006", ID: 2, Node: "early", Msg: "c"},
		{Rule: "WF001", ID: 7, Node: "z", Msg: "A"},
	}
	SortDiags(diags)
	want := []Diag{
		{Rule: "WF001", ID: 7, Node: "z", Msg: "A"},
		{Rule: "WF001", ID: 7, Node: "z", Msg: "a"},
		{Rule: "WF006", ID: 2, Node: "early", Msg: "c"},
		{Rule: "WF006", ID: 4, Node: "join", Msg: "b"},
	}
	for i := range want {
		if diags[i] != want[i] {
			t.Fatalf("diag %d = %+v, want %+v", i, diags[i], want[i])
		}
	}
}

func TestRunWorkflowRejectsInvalidAfterMutation(t *testing.T) {
	// Mutators must leave the workflow re-validatable: a fused workflow
	// validates cleanly from scratch.
	outSchema := relation.MustSchema(relation.Field{Name: "x", Type: relation.Int})
	w := New("revalidate")
	src := w.Source("src", intTable(50))
	f := w.Op(NewFilter("keep", cost.Python, func(r relation.Tuple) bool { return true }))
	m := w.Op(NewMap("m", cost.Python, outSchema, func(r relation.Tuple, out *Rows) error {
		out.Emit(relation.IntValue(r[1].Int()))
		return nil
	}))
	snk := w.Sink("out")
	w.Connect(src, f, 0, RoundRobin())
	w.Connect(f, m, 0, RoundRobin())
	w.Connect(m, snk, 0, RoundRobin())
	if err := w.Fuse(f, m); err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("fused workflow fails validation: %v", err)
	}
	if ds := Validate(w); len(ds) > 0 {
		t.Fatalf("fused workflow has diagnostics: %v", ds)
	}
}
