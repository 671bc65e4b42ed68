package dataflow

import (
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/relation"
)

func intTable(n int) *relation.Table {
	s := relation.MustSchema(relation.Field{Name: "id", Type: relation.Int}, relation.Field{Name: "v", Type: relation.Int})
	t := relation.NewTable(s)
	for i := 0; i < n; i++ {
		t.AppendUnchecked(relation.Tuple{relation.IntValue(int64(i)), relation.IntValue(int64(i % 10))})
	}
	return t
}

func TestValidateEmptyWorkflow(t *testing.T) {
	if err := New("empty").Validate(); err == nil {
		t.Fatal("expected error for empty workflow")
	}
}

func TestValidateSimplePipeline(t *testing.T) {
	w := New("simple")
	src := w.Source("src", intTable(100))
	f := w.Op(NewFilter("keep-even", cost.Python, func(r relation.Tuple) bool { return r[1].Int()%2 == 0 }))
	snk := w.Sink("out")
	w.Connect(src, f, 0, RoundRobin())
	w.Connect(f, snk, 0, RoundRobin())
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.NumOperators() != 2 { // filter + sink
		t.Fatalf("NumOperators = %d", w.NumOperators())
	}
	if got := w.OutputSchemaOf(f); got == nil || got.IndexOf("id") != 0 {
		t.Fatalf("filter schema = %v", got)
	}
}

func TestValidateDanglingPort(t *testing.T) {
	w := New("dangling")
	w.Source("src", intTable(10))
	f := w.Op(NewFilter("f", cost.Python, func(relation.Tuple) bool { return true }))
	snk := w.Sink("out")
	w.Connect(f, snk, 0, RoundRobin())
	// Source never connected to filter; filter port 0 dangling... and
	// source has no consumers.
	if err := w.Validate(); err == nil {
		t.Fatal("expected error for dangling port")
	}
}

func TestValidateDuplicatePortConnection(t *testing.T) {
	w := New("dup")
	a := w.Source("a", intTable(10))
	b := w.Source("b", intTable(10))
	f := w.Op(NewFilter("f", cost.Python, func(relation.Tuple) bool { return true }))
	w.Connect(a, f, 0, RoundRobin())
	w.Connect(b, f, 0, RoundRobin())
	if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "already connected") {
		t.Fatalf("expected duplicate-port error, got %v", err)
	}
}

func TestValidateBadConnections(t *testing.T) {
	w := New("bad")
	src := w.Source("src", intTable(10))
	snk := w.Sink("out")
	w.Connect(snk, src, 0, RoundRobin())
	if err := w.Validate(); err == nil {
		t.Fatal("expected error connecting sink -> source")
	}
	w2 := New("badport")
	s2 := w2.Source("src", intTable(10))
	f2 := w2.Op(NewFilter("f", cost.Python, func(relation.Tuple) bool { return true }))
	w2.Connect(s2, f2, 5, RoundRobin())
	if err := w2.Validate(); err == nil {
		t.Fatal("expected error for bad port index")
	}
	w3 := New("badid")
	s3 := w3.Source("src", intTable(10))
	w3.Connect(s3, NodeID(99), 0, RoundRobin())
	if err := w3.Validate(); err == nil {
		t.Fatal("expected error for out-of-range node id")
	}
}

func TestValidateUnknownHashKey(t *testing.T) {
	w := New("hashkey")
	src := w.Source("src", intTable(10))
	f := w.Op(NewFilter("f", cost.Python, func(relation.Tuple) bool { return true }), WithParallelism(2))
	snk := w.Sink("out")
	w.Connect(src, f, 0, HashPartition("missing"))
	w.Connect(f, snk, 0, RoundRobin())
	if err := w.Validate(); err == nil || !strings.HasPrefix(err.Error(), "dataflow: WF005: ") || !strings.Contains(err.Error(), "hash key") {
		t.Fatalf("expected a WF005 hash key error, got %v", err)
	}
}

func TestValidateParallelSortRejected(t *testing.T) {
	w := New("psort")
	src := w.Source("src", intTable(10))
	s := w.Op(NewSort("sort", cost.Python, "id"), WithParallelism(2))
	snk := w.Sink("out")
	w.Connect(src, s, 0, RoundRobin())
	w.Connect(s, snk, 0, RoundRobin())
	if err := w.Validate(); err == nil {
		t.Fatal("expected error for parallel sort")
	}
}

func TestValidateParallelJoinNeedsHash(t *testing.T) {
	w := New("pjoin")
	a := w.Source("a", intTable(10))
	b := w.Source("b", intTable(10))
	j := w.Op(NewHashJoin("join", cost.Python, "id", "id", relation.Inner), WithParallelism(2))
	snk := w.Sink("out")
	w.Connect(a, j, 0, RoundRobin())
	w.Connect(b, j, 1, RoundRobin())
	w.Connect(j, snk, 0, RoundRobin())
	if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "hash-partitioned") {
		t.Fatalf("expected hash partition requirement, got %v", err)
	}
}

func TestValidateParallelGroupByNeedsHash(t *testing.T) {
	w := New("pgroup")
	src := w.Source("src", intTable(10))
	g := w.Op(NewGroupBy("g", cost.Python, []string{"v"}, []relation.Aggregate{{Func: relation.Count, As: "n"}}), WithParallelism(2))
	snk := w.Sink("out")
	w.Connect(src, g, 0, RoundRobin())
	w.Connect(g, snk, 0, RoundRobin())
	if err := w.Validate(); err == nil {
		t.Fatal("expected error for round-robin parallel group-by")
	}
}

func TestValidateCycle(t *testing.T) {
	w := New("cycle")
	a := w.Op(NewFilter("a", cost.Python, func(relation.Tuple) bool { return true }))
	b := w.Op(NewFilter("b", cost.Python, func(relation.Tuple) bool { return true }))
	w.Connect(a, b, 0, RoundRobin())
	w.Connect(b, a, 0, RoundRobin())
	if err := w.Validate(); err == nil {
		t.Fatal("expected cycle error")
	}
}

func TestBuilderErrorsSticky(t *testing.T) {
	w := New("sticky")
	w.Source("nil-table", nil)
	w.Sink("out")
	if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "nil table") {
		t.Fatalf("expected sticky builder error, got %v", err)
	}
}

func TestDescValidate(t *testing.T) {
	bad := []Desc{
		{Name: "", Ports: 1, BlockingPorts: []bool{false}},
		{Name: "x", Ports: 0, BlockingPorts: nil},
		{Name: "x", Ports: 2, BlockingPorts: []bool{false}},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	good := Desc{Name: "x", Ports: 2, BlockingPorts: []bool{true, false}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.FullyBlocking() {
		t.Fatal("mixed ports are not fully blocking")
	}
	full := Desc{Name: "x", Ports: 1, BlockingPorts: []bool{true}}
	if !full.FullyBlocking() {
		t.Fatal("single blocking port should be fully blocking")
	}
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		Uninitialized: "uninitialized", Initializing: "initializing",
		Running: "running", Paused: "paused", Completed: "completed", Failed: "failed",
		Cancelled: "cancelled",
	}
	for s, n := range want {
		if s.String() != n {
			t.Fatalf("State(%d).String() = %q", s, s.String())
		}
	}
	if State(99).String() != "State(99)" {
		t.Fatal("unknown state string wrong")
	}
}

func TestPartitioningStrings(t *testing.T) {
	if RoundRobin().String() != "round-robin" {
		t.Fatal("round robin string")
	}
	if HashPartition("k").String() != "hash(k)" {
		t.Fatal("hash string")
	}
	if Broadcast().String() != "broadcast" {
		t.Fatal("broadcast string")
	}
}

func TestOpError(t *testing.T) {
	inner := &OpError{Op: "f", Worker: 2, Port: 1, Err: errTest}
	if !strings.Contains(inner.Error(), "worker 2") || !strings.Contains(inner.Error(), `"f"`) {
		t.Fatalf("error = %q", inner.Error())
	}
	noWorker := &OpError{Op: "f", Worker: -1, Port: -1, Err: errTest}
	if strings.Contains(noWorker.Error(), "worker") {
		t.Fatalf("error = %q", noWorker.Error())
	}
	if inner.Unwrap() != errTest {
		t.Fatal("unwrap wrong")
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "boom" }
