package dataflow

import (
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/relation"
)

// findDiag returns the first diagnostic with the given rule, or nil.
func findDiag(diags []Diag, rule string) *Diag {
	for i := range diags {
		if diags[i].Rule == rule {
			return &diags[i]
		}
	}
	return nil
}

func TestStaticValidateCleanPlan(t *testing.T) {
	w := New("clean")
	src := w.Source("src", intTable(100))
	f := w.Op(NewFilter("keep-even", cost.Python, func(r relation.Tuple) bool { return r[1].Int()%2 == 0 }),
		WithSignature("rev=3"))
	snk := w.Sink("out")
	w.Connect(src, f, 0, RoundRobin())
	w.Connect(f, snk, 0, RoundRobin())
	if diags := Validate(w); len(diags) != 0 {
		t.Fatalf("expected clean plan, got %v", diags)
	}
	if w.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", w.NumEdges())
	}
	// Validate must not have warmed the executor's schema cache.
	if w.validated {
		t.Fatal("static Validate mutated the workflow's validated flag")
	}
}

func TestStaticValidateCycle(t *testing.T) {
	w := New("cyclic")
	src := w.Source("src", intTable(10))
	u := w.Op(NewUnion("merge", cost.Python))
	f := w.Op(NewFilter("f", cost.Python, func(relation.Tuple) bool { return true }))
	snk := w.Sink("out")
	w.Connect(src, u, 0, RoundRobin())
	w.Connect(u, f, 0, RoundRobin())
	w.Connect(f, u, 1, RoundRobin()) // closes the merge <-> f loop
	w.Connect(f, snk, 0, RoundRobin())
	diags := Validate(w)
	d := findDiag(diags, RuleCycle)
	if d == nil {
		t.Fatalf("expected %s, got %v", RuleCycle, diags)
	}
	if !strings.Contains(d.Msg, "cycle") {
		t.Fatalf("cycle diag message = %q", d.Msg)
	}
}

func TestStaticValidateArityMismatch(t *testing.T) {
	w := New("arity")
	src := w.Source("src", intTable(10))
	j := w.Op(NewHashJoin("join", cost.Python, "id", "id", relation.Inner))
	snk := w.Sink("out")
	w.Connect(src, j, 1, RoundRobin()) // probe side only; build port 0 dangling
	w.Connect(j, snk, 0, RoundRobin())
	diags := Validate(w)
	d := findDiag(diags, RuleArity)
	if d == nil {
		t.Fatalf("expected %s, got %v", RuleArity, diags)
	}
	if d.Node != "join" {
		t.Fatalf("arity diag names node %q, want \"join\"", d.Node)
	}
	if !strings.Contains(d.Msg, "1 of 2") {
		t.Fatalf("arity diag message = %q", d.Msg)
	}
}

func TestStaticValidateSchemaClashAcrossJoin(t *testing.T) {
	// Probe key is an int column, build key a string column: schema
	// inference through the join must fail with a type clash.
	strTbl := relation.NewTable(relation.MustSchema(
		relation.Field{Name: "id", Type: relation.String},
		relation.Field{Name: "label", Type: relation.String},
	))
	strTbl.AppendUnchecked(relation.Tuple{relation.StringValue("a"), relation.StringValue("x")})

	w := New("clash")
	probe := w.Source("probe", intTable(10))
	build := w.Source("build", strTbl)
	j := w.Op(NewHashJoin("join", cost.Python, "id", "id", relation.Inner))
	snk := w.Sink("out")
	w.Connect(build, j, 0, Broadcast())
	w.Connect(probe, j, 1, RoundRobin())
	w.Connect(j, snk, 0, RoundRobin())
	diags := Validate(w)
	d := findDiag(diags, RuleSchema)
	if d == nil {
		t.Fatalf("expected %s, got %v", RuleSchema, diags)
	}
	if d.Node != "join" {
		t.Fatalf("schema diag names node %q, want \"join\"", d.Node)
	}
	if !strings.Contains(d.Msg, "type mismatch") {
		t.Fatalf("schema diag message = %q", d.Msg)
	}
}

func TestStaticValidateHashKeyMissing(t *testing.T) {
	w := New("hashkey")
	src := w.Source("src", intTable(10))
	f := w.Op(NewFilter("f", cost.Python, func(relation.Tuple) bool { return true }))
	snk := w.Sink("out")
	w.Connect(src, f, 0, HashPartition("no_such_column"))
	w.Connect(f, snk, 0, RoundRobin())
	diags := Validate(w)
	d := findDiag(diags, RuleHashKey)
	if d == nil {
		t.Fatalf("expected %s, got %v", RuleHashKey, diags)
	}
	if !strings.Contains(d.Msg, "no_such_column") {
		t.Fatalf("hash key diag message = %q", d.Msg)
	}
}

func TestStaticValidateParallelSort(t *testing.T) {
	w := New("parsort")
	src := w.Source("src", intTable(10))
	s := w.Op(NewSort("sort", cost.Python, "v"), WithParallelism(4))
	snk := w.Sink("out")
	w.Connect(src, s, 0, RoundRobin())
	w.Connect(s, snk, 0, RoundRobin())
	diags := Validate(w)
	d := findDiag(diags, RuleParallel)
	if d == nil {
		t.Fatalf("expected %s, got %v", RuleParallel, diags)
	}
	if d.Node != "sort" {
		t.Fatalf("parallel diag names node %q, want \"sort\"", d.Node)
	}
}

func TestStaticValidateSignatureFormat(t *testing.T) {
	w := New("sig")
	src := w.Source("src", intTable(10))
	f := w.Op(NewFilter("f", cost.Python, func(relation.Tuple) bool { return true }),
		WithSignature("v1.2.3-beta"))
	snk := w.Sink("out")
	w.Connect(src, f, 0, RoundRobin())
	w.Connect(f, snk, 0, RoundRobin())
	diags := Validate(w)
	d := findDiag(diags, RuleSignature)
	if d == nil {
		t.Fatalf("expected %s, got %v", RuleSignature, diags)
	}
	if d.Node != "f" || !strings.Contains(d.Msg, "v1.2.3-beta") {
		t.Fatalf("signature diag = %+v", d)
	}
}

// blockingOp is a custom fully-blocking single-port operator used to
// exercise the checkpoint-compatibility rule; it never executes.
type blockingOp struct{}

func (blockingOp) Desc() Desc {
	return Desc{Name: "train", Language: cost.Python, Ports: 1, BlockingPorts: []bool{true}}
}
func (blockingOp) OutputSchema(in []*relation.Schema) (*relation.Schema, error) {
	return in[0], nil
}
func (blockingOp) NewInstance(ExecCtx, []*relation.Schema) (Instance, error) { return nil, nil }

func TestStaticValidateCheckpointIncompatibility(t *testing.T) {
	w := New("ckpt")
	src := w.Source("src", intTable(10))
	b := w.Op(blockingOp{}, WithParallelism(2))
	snk := w.Sink("out")
	w.Connect(src, b, 0, RoundRobin())
	w.Connect(b, snk, 0, RoundRobin())
	diags := Validate(w)
	d := findDiag(diags, RuleCheckpoint)
	if d == nil {
		t.Fatalf("expected %s, got %v", RuleCheckpoint, diags)
	}
	if d.Node != "train" || !strings.Contains(d.Msg, "round-robin") {
		t.Fatalf("checkpoint diag = %+v", d)
	}

	// The same plan with a hash-partitioned feed is checkpoint-safe.
	w2 := New("ckpt-ok")
	src2 := w2.Source("src", intTable(10))
	b2 := w2.Op(blockingOp{}, WithParallelism(2))
	snk2 := w2.Sink("out")
	w2.Connect(src2, b2, 0, HashPartition("id"))
	w2.Connect(b2, snk2, 0, RoundRobin())
	if diags := Validate(w2); len(diags) != 0 {
		t.Fatalf("hash-partitioned blocking plan should be clean, got %v", diags)
	}
}

func TestStaticValidateBuilderError(t *testing.T) {
	w := New("builder")
	w.Op(nil) // nil operator records a builder error
	diags := Validate(w)
	if len(diags) != 1 || diags[0].Rule != RuleBuilder {
		t.Fatalf("expected a single %s, got %v", RuleBuilder, diags)
	}
}

func TestStaticValidateMultipleDiags(t *testing.T) {
	// One plan, two independent problems: a bad signature and a
	// dangling join port. The static checker reports both where the
	// executor's Validate would stop at the first.
	w := New("multi")
	src := w.Source("src", intTable(10))
	j := w.Op(NewHashJoin("join", cost.Python, "id", "id", relation.Inner),
		WithSignature("oops"))
	snk := w.Sink("out")
	w.Connect(src, j, 1, RoundRobin())
	w.Connect(j, snk, 0, RoundRobin())
	diags := Validate(w)
	if findDiag(diags, RuleArity) == nil || findDiag(diags, RuleSignature) == nil {
		t.Fatalf("expected both %s and %s, got %v", RuleArity, RuleSignature, diags)
	}
}
